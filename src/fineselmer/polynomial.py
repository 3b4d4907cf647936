"""Dense univariate polynomials: the package's one Z[x] layer, and QPoly.

The kernels take coefficient lists, lowest degree first. `_mul`, `_add`,
`_sub`, `_derivative` and `_compose_linear` run over any ring whose
elements mix with the int 0, and none of them reduces: the package
passes ints (the division polynomial ladder, the p-adic root search, the
Hensel lift, the closure test, residues mod l for finitefield's `_vec_*`
helpers) and the Fractions of non-integral QPolys. The rest take ints:
`_horner_mod`, `_symmetric` (a residue in (-m/2, m/2]), `_primitive`,
`_exact_quotient`, `_rem_monic` (the remainder by a monic) and
`_newton_lift`, the one lift of a simple root to Z_p, which the p-adic
root search and the Hensel lift of factorization share; Newton's
iteration is Hensel lifting of a degree-1 factor (von zur Gathen &
Gerhard, Modern Computer Algebra, 9.4 and 15.4). QPoly is a polynomial
over Q with division, the gcd and the squarefree part on top; the
squarefree part is the p-adic root search's fallback. Like a
WeierstrassModel, an integral QPoly stores ints and any other all
Fractions: its content and primitive part run on math.gcd and //, and
division stores ints again when the result is integral. Degrees stay
at most (13^2 - 1)/2 = 84, so everything is dense.

The zero polynomial has degree -1, a sentinel chosen so that
deg(f*g) = deg f + deg g never has to special-case zero in callers that
already excluded it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["QPoly", "ZERO_DEGREE"]

ZERO_DEGREE = -1


# ---------------------------------------------------------------------------
# coefficient-list kernels, lowest degree first
# ---------------------------------------------------------------------------


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a: Sequence, b: Sequence) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(out)


def _sub(a: Sequence, b: Sequence) -> list:
    return _add(a, [-c for c in b])


def _mul(a: Sequence, b: Sequence) -> list:
    """Schoolbook product; [] when either factor is []."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
    return out


def _horner_mod(a: Sequence[int], x: int, mod: int) -> int:
    """a(x) mod `mod`, reduced at every step."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % mod
    return acc


def _derivative(a: Sequence) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _compose_linear(a: Sequence, u, v) -> list:
    """Coefficients of a(u x + v) for a nonzero a."""
    out = [a[-1]]
    for c in reversed(a[:-1]):
        nxt = [0] * (len(out) + 1)
        for i, w in enumerate(out):
            nxt[i] += w * v
            nxt[i + 1] += w * u
        nxt[0] += c
        out = nxt
    return out


def _symmetric(c: int, mod: int) -> int:
    """The representative of c mod `mod` in (-mod/2, mod/2]."""
    c %= mod
    return c - mod if c > mod // 2 else c


def _primitive(a: Sequence[int]) -> list[int]:
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


def _rem_monic(a: list[int], m: list[int]) -> list[int]:
    """a rem m in Z[x] for a monic m, as deg m coefficients."""
    dm = len(m) - 1
    a = a + [0] * (dm - len(a))
    for i in range(len(a) - 1, dm - 1, -1):
        for j in range(dm):
            a[i - dm + j] -= a[i] * m[j]
    return a[:dm]


def _newton_lift(coeffs: list[int], r0: int, p: int, absprec: int) -> int:
    """The root of f in Z_p congruent to r0 mod p, reduced mod p^absprec.

    f is given by its integer coefficient list and must satisfy
    f(r0) = 0 (mod p) with f'(r0) a p-adic unit, so the root exists and
    is unique (Hensel). Newton's step doubles the digits of f(r) = 0 each
    time, so absprec.bit_length() + 1 steps always suffice.
    """
    dcoeffs = _derivative(coeffs)
    m = p**absprec
    r = r0 % m
    for _ in range(absprec.bit_length() + 1):
        fr = _horner_mod(coeffs, r, m)
        if fr == 0:
            return r
        r = (r - fr * pow(_horner_mod(dcoeffs, r, m), -1, m)) % m
    raise AssertionError("Newton iteration failed to converge; this is a bug")


def _one_type(coeffs: Iterable) -> tuple:
    """coeffs without trailing zeros, all ints if every one is integral and
    else all Fractions; anything else, a float included, is refused."""
    cs = list(coeffs)
    if not all(type(c) is int for c in cs):
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("polynomial coefficients must be int or Fraction, "
                                f"got {type(c).__name__}")
        integral = all(c.denominator == 1 for c in cs)
        cs = [int(c) if integral else Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


class QPoly:
    """Immutable dense polynomial over Q.

    coeffs[i] is the coefficient of x^i; trailing zeros are stripped at
    construction so the representation is canonical and equality is
    coefficientwise. The coefficients are all ints when every one is
    integral and all Fractions otherwise.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...] | tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        object.__setattr__(self, "coeffs", _one_type(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    def __reduce__(self):
        return type(self), (self.coeffs,)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "QPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "QPoly":
        return cls((c,))

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else ZERO_DEGREE

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int | Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int | Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def is_integral(self) -> bool:
        return not self.coeffs or type(self.coeffs[0]) is int

    def int_coeffs(self) -> list[int]:
        if not self.is_integral:
            raise ValueError(f"polynomial is not integral: {self}")
        return list(self.coeffs)

    # -- ring operations -------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        return QPoly(_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return QPoly(_sub(self.coeffs, other.coeffs))

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return QPoly([c * other for c in self.coeffs])
        return QPoly(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Exact division with remainder over Q; other must be nonzero."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return QPoly.zero(), self
        quot = [0] * (dq + 1)
        lead = other.leading
        for i in range(dq, -1, -1):
            c = rem[i + other.degree]
            if c:
                q = c if lead == 1 else Fraction(c, lead)
                quot[i] = q
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] -= q * oc
        return QPoly(quot), QPoly(rem)

    def __floordiv__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[1]

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "QPoly":
        return QPoly(_derivative(self.coeffs))

    # -- normalization ---------------------------------------------------

    def monic(self) -> "QPoly":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading
        return self if lead == 1 else QPoly([Fraction(c, lead) for c in self.coeffs])

    def content(self) -> int | Fraction:
        """Positive rational c with self = c * primitive integer polynomial;
        an int for an integral self (0 for the zero polynomial)."""
        if self.is_integral:
            return math.gcd(*self.coeffs)
        return Fraction(math.gcd(*(c.numerator for c in self.coeffs)),
                        math.lcm(*(c.denominator for c in self.coeffs)))

    def primitive(self) -> "QPoly":
        """Integer polynomial with content 1 and positive leading coefficient."""
        if self.is_zero:
            return self
        scale = 1 if self.is_integral else math.lcm(*(c.denominator for c in self.coeffs))
        return QPoly(_primitive([int(c * scale) for c in self.coeffs]))

    def gcd(self, other: "QPoly") -> "QPoly":
        """Monic gcd in Q[x] (Euclid); gcd(0, 0) = 0."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a if a.is_zero else a.monic()

    def squarefree_part(self) -> "QPoly":
        """Monic product of the distinct irreducible factors (f / gcd(f, f'))."""
        if self.is_zero:
            raise ValueError("zero polynomial has no squarefree part")
        g = self.gcd(self.derivative())
        return (self // g).monic()

    # -- misc --------------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero:
            return "QPoly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "QPoly(" + " + ".join(terms).replace("+ -", "- ") + ")"
