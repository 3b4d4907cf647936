"""Finite fields F_l and F_{l^f}, their elements, and dense polynomials.

Fields are constructed through `FiniteField(l, f)` and cached, so two
handles to F_{l^f} share one defining polynomial. The defining polynomial
for f >= 2 is the monic irreducible of degree f whose non-leading
coefficient vector (c_0, ..., c_{f-1}) has the least integer code
sum(c_i * l^i); it is found by enumeration and verified irreducible with
Rabin's test at construction time. For f = 1 the defining polynomial is x
and elements are plain residues.

Everything here is exact and immutable; elements hash and compare by
value. Characteristic-2 fields are fully supported except for
quadratic-residue questions (`is_square` rejects them, per contract; the
trace map covers the split/nonsplit decisions char 2 actually needs).
"""

from __future__ import annotations

from .modular import is_prime

__all__ = ["FiniteField", "FqElem", "FqPoly", "is_square"]

_FIELD_CACHE: dict[tuple[int, int], "FiniteField"] = {}


# ---------------------------------------------------------------------------
# bare int-vector polynomial helpers mod l: they bootstrap the field, and
# factorization runs its distinct- and equal-degree splits and Hensel step
# on them
# ---------------------------------------------------------------------------


def _vec_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _vec_mulmod(a: list[int], b: list[int], mod: list[int], l: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % l
    return _vec_rem(out, mod, l)


def _vec_rem(a: list[int], mod: list[int], l: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, l)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            q = c * inv_lead % l
            for j, mc in enumerate(mod):
                a[i - dm + j] = (a[i - dm + j] - q * mc) % l
    del a[dm:]
    return _vec_trim(a)


def _vec_quo(a: list[int], mod: list[int], l: int) -> list[int]:
    """Exact quotient a / mod over F_l; a remainder is a bug in the caller."""
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, l)
    quo = [0] * (len(a) - dm)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            q = quo[i - dm] = c * inv_lead % l
            for j, mc in enumerate(mod):
                a[i - dm + j] = (a[i - dm + j] - q * mc) % l
    if any(a[:dm]):
        raise ArithmeticError("inexact polynomial division mod l")
    return quo


def _vec_powmod(a: list[int], e: int, mod: list[int], l: int) -> list[int]:
    result = [1]
    base = _vec_rem(list(a), mod, l)
    while e:
        if e & 1:
            result = _vec_mulmod(result, base, mod, l)
        base = _vec_mulmod(base, base, mod, l)
        e >>= 1
    return result


def _vec_gcd(a: list[int], b: list[int], l: int) -> list[int]:
    a, b = _vec_trim(list(a)), _vec_trim(list(b))
    while b:
        inv_lead = pow(b[-1], -1, l)
        dm = len(b) - 1
        r = list(a)
        for i in range(len(r) - 1, dm - 1, -1):
            c = r[i]
            if c:
                q = c * inv_lead % l
                for j, mc in enumerate(b):
                    r[i - dm + j] = (r[i - dm + j] - q * mc) % l
        del r[dm:]
        a, b = b, _vec_trim(r)
    return a


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


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------


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
        """All roots in the base field, by gcd with x^q - x then enumeration.

        The gcd step keeps enumeration cheap even when q is large relative
        to the degree.
        """
        if self.is_zero:
            raise ValueError("zero polynomial has every root")
        xq = FqPoly.x(self.field).pow_mod(self.field.order, self)
        linear_part = self.gcd(xq - FqPoly.x(self.field))
        if linear_part.degree <= 0:
            return []
        found: list[FqElem] = []
        if self.field.order <= 4096:
            for a in self.field.elements():
                if not linear_part(a):
                    found.append(a)
            return found
        # large field: split linear_part recursively is overkill here; the
        # package only calls roots() on small fields, but stay correct anyway
        for a in self.field.elements():
            if not linear_part(a):
                found.append(a)
                if len(found) == linear_part.degree:
                    break
        return found

    def __repr__(self) -> str:
        if self.is_zero:
            return "FqPoly(0)"
        body = ", ".join(str(c.coords[0] if self.field.degree == 1 else list(c.coords)) for c in self.coeffs)
        return f"FqPoly[{self.field!r}]({body})"
