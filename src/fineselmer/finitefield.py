"""The prime field F_l: int-list polynomial helpers, elements, FqPoly.

The pipeline needs prime fields only: reduction types and split tests
at the bad primes, traces a_l, and psi_p modulo one good prime l.
All polynomial arithmetic mod l runs on the `_vec_*` helpers below,
plain coefficient lists of ints; there is no second layer of it.
`FiniteField(l)` is a plain value compared by its characteristic and
an element `FqElem` holds one int in [0, l); WeierstrassModel.reduction
hands them out. `FqPoly`, a polynomial of elements, is only a boundary:
public API for root counts over F_l (the acceptance test counts torsion
points with `FqPoly.roots`), which reads its residues into an int list
and answers on the `_vec_*` helpers. No pipeline step builds one.
Extension fields F_{l^f}, and the boxed polynomial arithmetic the
helpers replaced, live in the tests as oracles.

Everything here is exact and immutable; elements hash and compare by
value.
"""

from __future__ import annotations

from .modular import is_prime
from .polynomial import _horner, _mul, _sub, _trim

__all__ = ["FiniteField", "FqElem", "FqPoly"]


# ---------------------------------------------------------------------------
# int-list polynomial helpers mod l, on which factorization runs its
# squarefree test, its distinct- and equal-degree splits and its Hensel
# step: residues in [0, l), lowest degree first. The product is
# polynomial._mul reduced mod l; one long-division loop gives both
# quotient and remainder. _vec_powmod is left-to-right square-and-multiply
# from a itself. _vec_frobenius, a^l mod `mod`, is the one Frobenius entry
# point: the distinct-degree split steps x^(l^i) with it, and
# FqPoly.roots forms x^l with it. The Hensel lift also runs _vec_mulmod
# and _vec_divmod modulo a prime power l^k; there it divides only by
# monic polynomials, so the leading coefficient is always invertible.
# ---------------------------------------------------------------------------


def _vec_mulmod(a: list[int], b: list[int], mod: list[int], l: int) -> list[int]:
    return _vec_rem([c % l for c in _mul(a, b)], mod, l)


def _vec_divmod(a: list[int], mod: list[int], l: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by mod over F_l."""
    rem = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, l)
    quo = [0] * max(len(rem) - dm, 0)
    for i in range(len(rem) - 1, dm - 1, -1):
        c = rem[i]
        if c:
            q = quo[i - dm] = c * inv_lead % l
            for j, mc in enumerate(mod):
                rem[i - dm + j] = (rem[i - dm + j] - q * mc) % l
    del rem[dm:]
    return quo, _trim(rem)


def _vec_rem(a: list[int], mod: list[int], l: int) -> list[int]:
    return _vec_divmod(a, mod, l)[1]


def _vec_quo(a: list[int], mod: list[int], l: int) -> list[int]:
    """Exact quotient a / mod over F_l; a remainder is a bug in the caller."""
    quo, rem = _vec_divmod(a, mod, l)
    if rem:
        raise ArithmeticError("inexact polynomial division mod l")
    return quo


def _vec_powmod(a: list[int], e: int, mod: list[int], l: int) -> list[int]:
    """a^e mod `mod` over F_l, left to right from the top bit of e.

    It starts from a rem mod, so it makes bit_length(e) - 1 squarings
    and popcount(e) - 1 products with a.
    """
    if not e:
        return [1]
    base = _vec_rem([c % l for c in a], mod, l)
    result = base
    for bit in bin(e)[3:]:
        result = _vec_mulmod(result, result, mod, l)
        if bit == "1":
            result = _vec_mulmod(result, base, mod, l)
    return result


# c^l = c on F_l, so a(x)^l = a(x^l) in F_l[x] (von zur Gathen & Gerhard,
# Modern Computer Algebra, 14.2). Spreading a's coefficients at stride l
# and reducing once costs about (l - 1) n^2 steps for deg mod = n;
# _vec_powmod's bit_length(l) + popcount(l) - 2 products, each a product
# and a reduction, cost about 2 (bit_length(l) + popcount(l) - 2) n^2.
# That count puts the crossover at l = 11. Timed on eight random a and
# monic mod of each degree n = 12, 24, 40, 60 and 84 (2-core VM, Python
# 3.11, best of 7), the substitution took 0.50-0.62 of the powering's
# time at l = 3, 0.72-0.87 at l = 5, 0.77-1.06 at l = 7 and 1.04-1.52 at
# l = 11. A step of the long division, with its index arithmetic and its
# reduction mod l, costs more than a step of the product, so the
# crossover comes earlier; l = 7 loses only at n = 84. The substitution
# takes l <= 7.
FROBENIUS_SUBSTITUTION_MAX = 7


def _vec_frobenius(a: list[int], mod: list[int], l: int) -> list[int]:
    """a^l mod `mod` over F_l: a(x^l) rem mod for small l, else powering."""
    if l > FROBENIUS_SUBSTITUTION_MAX:
        return _vec_powmod(a, l, mod, l)
    spread = [0] * (l * (len(a) - 1) + 1)
    spread[::l] = [c % l for c in a]
    return _vec_rem(spread, mod, l)


def _vec_gcd(a: list[int], b: list[int], l: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _vec_rem(a, b, l)
    return a


def _vec_inverse_mod(a: list[int], mod: list[int], l: int) -> list[int]:
    """Inverse of a modulo `mod` over F_l, by extended Euclid."""
    r0, r1 = _trim(list(mod)), _vec_rem(a, mod, l)
    s0, s1 = [], [1]
    while r1:
        q, rem = _vec_divmod(r0, r1, l)
        r0, r1 = r1, rem
        s0, s1 = s1, _trim([c % l for c in _sub(s0, _mul(q, s1))])
    if len(r0) != 1:
        raise ValueError("element not invertible modulo the given polynomial")
    inv = pow(r0[0], -1, l)
    return [c * inv % l for c in s0]


# ---------------------------------------------------------------------------
# the field and its elements
# ---------------------------------------------------------------------------


class FiniteField:
    """The prime field F_l; `degree` is accepted only as 1."""

    __slots__ = ("char",)

    def __init__(self, char: int, degree: int = 1):
        if degree != 1:
            raise ValueError(f"only prime fields are supported, got degree {degree}")
        if not is_prime(char):
            raise ValueError(f"field characteristic must be prime, got {char}")
        object.__setattr__(self, "char", char)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteField is immutable")

    def __reduce__(self):
        return type(self), (self.char,)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteField) and other.char == self.char

    def __hash__(self) -> int:
        return hash(self.char)

    @property
    def order(self) -> int:
        return self.char

    def element(self, value) -> "FqElem":
        """Coerce an int, or an element of this field, into the field."""
        if isinstance(value, FqElem):
            if value.field.char != self.char:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FqElem(self, value % self.char)
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    def one(self) -> "FqElem":
        return FqElem(self, 1)

    def elements(self):
        """Iterate over all l elements, in the order 0, 1, ..., l - 1."""
        for value in range(self.char):
            yield FqElem(self, value)

    def __repr__(self) -> str:
        return f"F_{self.char}"


class FqElem:
    """An element of F_l, held as its residue in [0, l)."""

    __slots__ = ("field", "value")

    def __init__(self, field: FiniteField, value: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FqElem is immutable")

    def __reduce__(self):
        return type(self), (self.field, self.value)

    def _coerce(self, other):
        """The residue of an element of the same field, or of an int."""
        if isinstance(other, FqElem):
            if other.field.char != self.field.char:
                raise ValueError("mixed-field arithmetic")
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return (other - self.value) % self.field.char == 0
        return (isinstance(other, FqElem) and other.field.char == self.field.char
                and other.value == self.value)

    def __hash__(self) -> int:
        return hash((self.field.char, self.value))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FqElem(self.field, (self.value + o) % self.field.char)

    __radd__ = __add__

    def __neg__(self):
        return FqElem(self.field, -self.value % self.field.char)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FqElem(self.field, (self.value - o) % self.field.char)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FqElem(self.field, self.value * o % self.field.char)

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if not self.value:
            raise ZeroDivisionError("inverse of zero field element")
        return FqElem(self.field, pow(self.value, -1, self.field.char))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * self.field.element(o).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int) -> "FqElem":
        if e < 0:
            return self.inverse() ** (-e)
        return FqElem(self.field, pow(self.value, e, self.field.char))

    def lift(self) -> int:
        """Integer representative in [0, l)."""
        return self.value

    def __repr__(self) -> str:
        return f"{self.value}(mod {self.field.char})"


# ---------------------------------------------------------------------------
# polynomials over F_l
# ---------------------------------------------------------------------------


class FqPoly:
    """Immutable dense polynomial over a FiniteField; zero has degree -1.

    Its one operation, `roots()`, runs on the `_vec_*` helpers above.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs=()):
        cs = [field.element(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("FqPoly is immutable")

    def __reduce__(self):
        return type(self), (self.field, tuple(c.value for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def roots(self) -> list[FqElem]:
        """All roots in F_l, ascending, by gcd with x^l - x then enumeration.

        The gcd keeps only the distinct linear factors, so the scan stops
        once it has found as many roots as their product has degree.
        """
        if not self.coeffs:
            raise ValueError("zero polynomial has every root")
        l = self.field.char
        f = [c.value for c in self.coeffs]
        xl = _vec_frobenius([0, 1], f, l)
        linear_part = _vec_gcd(f, [c % l for c in _sub(xl, [0, 1])], l)
        if len(linear_part) <= 1:
            return []
        found: list[FqElem] = []
        for a in range(l):
            if not _horner(linear_part, a) % l:
                found.append(FqElem(self.field, a))
                if len(found) == len(linear_part) - 1:
                    break
        return found

    def __repr__(self) -> str:
        if not self.coeffs:
            return "FqPoly(0)"
        body = ", ".join(str(c.value) for c in self.coeffs)
        return f"FqPoly[{self.field!r}]({body})"
