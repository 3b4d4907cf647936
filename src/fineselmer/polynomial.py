"""Dense univariate polynomials: coefficient-list kernels and QPoly.

The kernels `_mul`, `_add`, `_sub`, `_horner`, `_derivative` and
`_compose_linear` take coefficient lists, lowest degree first, over any
ring whose elements mix with the int 0. The package passes plain ints
(the division polynomial ladder, the p-adic root search, the Hensel
lift, and residues mod l for the `_vec_*` helpers of finitefield) and
Fractions (QPoly); no F_l elements go through them. None of them
reduces; a caller working mod m reduces the result. QPoly is a
polynomial over Q with division, the gcd and the squarefree part on
top; the squarefree part is the p-adic root search's fallback.
Degrees stay at most (13^2 - 1)/2 = 84, so everything is dense.

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


def _horner(a: Sequence, x):
    """a(x); the int 0 for a = []."""
    if not a:
        return 0
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * x + c
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


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"polynomial coefficients must be int or Fraction, got {type(x).__name__}")


class QPoly:
    """Immutable dense polynomial over Q.

    coeffs[i] is the coefficient of x^i; trailing zeros are stripped at
    construction so the representation is canonical and equality is
    coefficientwise.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def int_coeffs(self) -> list[int]:
        if not self.is_integral:
            raise ValueError(f"polynomial is not integral: {self}")
        return [int(c) for c in self.coeffs]

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
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading
        for i in range(dq, -1, -1):
            c = rem[i + other.degree]
            if c:
                q = c / lead
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
        return self if lead == 1 else QPoly([c / lead for c in self.coeffs])

    def content(self) -> Fraction:
        """Positive rational c with self = c * primitive integer polynomial."""
        if self.is_zero:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "QPoly":
        """Integer polynomial with content 1 and positive leading coefficient."""
        if self.is_zero:
            return self
        c = self.content()
        if self.leading < 0:
            c = -c
        return QPoly([x / c for x in self.coeffs])

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
