"""Dense univariate polynomials with exact rational coefficients.

One class serves both the IntPoly and the rational-polynomial roles:
coefficients are fractions.Fraction, and integer-only contexts
(factorization over Z, division polynomials of integral models) check
`is_integral` and extract plain ints. Degrees stay small here (at most
(13^2 - 1)/2 = 84), so dense lists win on simplicity and there is no
sparse representation.

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return QPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

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

    def divides(self, other: "QPoly") -> bool:
        """True iff self divides other exactly in Q[x]."""
        if self.is_zero:
            return other.is_zero
        return other.divmod(self)[1].is_zero

    # -- calculus and evaluation ------------------------------------------

    def derivative(self) -> "QPoly":
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate by Horner; works for any value supporting + and *."""
        if not self.coeffs:
            return x * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

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

    def yun_squarefree(self) -> list[tuple["QPoly", int]]:
        """Yun's squarefree decomposition: [(g_i, i)] with f = lc * prod g_i^i.

        Each g_i is monic squarefree, pairwise coprime; trivial factors are
        omitted. Characteristic zero only.
        """
        f = self.monic()
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
