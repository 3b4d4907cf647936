"""Weierstrass models: invariants, coordinate changes, reduction, traces.

A model is the quintuple [a1, a2, a3, a4, a6] with rational entries and
nonzero discriminant.  The b- and c-invariants are computed once at
construction and double-checked against the identities
4*b8 = b2*b6 - b4^2 and 1728*Delta = c4^3 - c6^2, so a silent formula
slip cannot survive the constructor.  An integral model computes and
checks them on plain ints, and a coordinate change of an integral model
by integral r, s, t computes the new a-invariants on ints too, dividing
by powers of u only when u != 1; one formula body serves both paths, and
every attribute is stored as a Fraction either way.  Entries are ints,
Fractions or strings such as '1/2'; a float is refused with TypeError.

The group law is written against duck-typed field elements (anything
with +, -, *, / and ==): the same code path serves exact rational
points and reductions mod ell.  Division polynomials use the standard
f/g bisection ladder so the y-variable is eliminated once and for all;
odd n gives a univariate polynomial of degree (n^2-1)/2 with leading
coefficient n whose roots are the x-coordinates of the nonzero
n-torsion.  The model is integral, so the ladder (and the x-multiple
maps built on it) runs on integer lists and returns QPolys at the end.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .finitefield import FiniteField, FqElem
from .modular import is_prime
from .polynomial import QPoly, _mul, _sub

__all__ = [
    "WeierstrassModel",
    "point_neg",
    "point_add",
    "scalar_mul",
    "trace_of_frobenius",
    "frobenius_traces",
    "COUNT_LIMIT",
]

COUNT_LIMIT = 10**6


def _exact(v) -> Fraction:
    """v as a Fraction. A float is refused: its binary value is not the
    rational its digits spell, so 0.1 would enter as 3602879701896397/2^55."""
    if isinstance(v, float):
        raise TypeError(f"{v!r} is a float; pass an int, a Fraction or a "
                        "string such as '1/2'")
    return v if type(v) is Fraction else Fraction(v)


def _invariants(a1, a2, a3, a4, a6):
    """(b2, b4, b6, b8, c4, c6, discriminant) of [a1, a2, a3, a4, a6],
    on ints or on Fractions alike, with both identities checked."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if 4 * b8 != b2 * b6 - b4 * b4:
        raise AssertionError("b-invariant identity failed; formula bug")
    if 1728 * disc != c4**3 - c6 * c6:
        raise AssertionError("c-invariant identity failed; formula bug")
    return b2, b4, b6, b8, c4, c6, disc


def _shifted(a1, a2, a3, a4, a6, r, s, t):
    """The a-invariants after x = x' + r, y = y' + s x' + t, on ints or
    on Fractions alike; change_model then divides the k-th by u^k."""
    return (a1 + 2 * s,
            a2 - s * a1 + 3 * r - s * s,
            a3 + r * a1 + 2 * t,
            a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
            a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1)


class WeierstrassModel:
    """Immutable Weierstrass equation y^2 + a1xy + a3y = x^3 + a2x^2 + a4x + a6."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "b2", "b4", "b6", "b8",
                 "c4", "c6", "discriminant")

    def __init__(self, a1, a2, a3, a4, a6):
        a = tuple(_exact(v) for v in (a1, a2, a3, a4, a6))
        if all(v.denominator == 1 for v in a):
            invariants = tuple(Fraction(v) for v in _invariants(*(v.numerator for v in a)))
        else:
            invariants = _invariants(*a)
        if invariants[-1] == 0:
            raise ValueError("singular model: discriminant is zero")
        for name, val in zip(self.__slots__, a + invariants):
            object.__setattr__(self, name, val)

    def __setattr__(self, name, value):
        raise AttributeError("WeierstrassModel is immutable")

    @property
    def a_invariants(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def j_invariant(self) -> Fraction:
        return self.c4**3 / self.discriminant

    @property
    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.a_invariants)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeierstrassModel) and other.a_invariants == self.a_invariants

    def __hash__(self) -> int:
        return hash(self.a_invariants)

    def __repr__(self) -> str:
        body = ", ".join(str(v) for v in self.a_invariants)
        return f"WeierstrassModel([{body}])"

    # -- coordinate changes -------------------------------------------------

    def change_model(self, u, r, s, t) -> "WeierstrassModel":
        """Transform by x = u^2 x' + r, y = u^3 y' + s u^2 x' + t; u != 0.

        Scales the discriminant by u^-12 and c4 by u^-4.
        """
        u, r, s, t = (_exact(v) for v in (u, r, s, t))
        if u == 0:
            raise ValueError("u must be nonzero")
        shift = self.a_invariants + (r, s, t)
        if all(v.denominator == 1 for v in shift):
            moved = _shifted(*(v.numerator for v in shift))
        else:
            moved = _shifted(*shift)
        if u != 1:
            moved = (v / u**k for v, k in zip(moved, (1, 2, 3, 4, 6)))
        return WeierstrassModel(*moved)

    def integral_model(self) -> "WeierstrassModel":
        """Rescale by u = 1/m, m the lcm of coefficient denominators."""
        if self.is_integral:
            return self
        m = lcm(*(v.denominator for v in self.a_invariants))
        return self.change_model(Fraction(1, m), 0, 0, 0)

    # -- reduction ----------------------------------------------------------

    def reduction(self, field: FiniteField) -> tuple[FqElem, ...]:
        """a-invariants mapped into the field; model must be integral."""
        if not self.is_integral:
            raise ValueError("reduce an integral model")
        return tuple(field.element(int(v)) for v in self.a_invariants)

    # -- division polynomials -------------------------------------------------

    def division_polynomial(self, n: int) -> QPoly:
        """Univariate n-division polynomial for odd 3 <= n <= 13.

        Integral models only, so the output has integer coefficients.
        """
        if n % 2 == 0 or not 3 <= n <= 13:
            raise ValueError("implemented for odd n between 3 and 13")
        if not self.is_integral:
            raise ValueError("division polynomials expect an integral model")
        get_f, _, _ = self._division_ladder()
        poly = QPoly(get_f(n))
        expected_deg = (n * n - 1) // 2
        assert poly.degree == expected_deg and poly.leading == n, (
            "division polynomial shape check failed")
        return poly

    def x_multiple_fraction(self, k: int) -> tuple[QPoly, QPoly]:
        """x([k]P) = num(x)/den(x) as an x-only rational map, 2 <= k <= 13.

        Uses psi_{k-1} psi_{k+1} / psi_k^2 = x - x([k]P); the y-carrying
        factor psi_2 appears squared throughout, so everything collapses
        to the univariate ladder. Integral models only.
        """
        if not 2 <= k <= 13:
            raise ValueError("k out of the supported ladder range")
        if not self.is_integral:
            raise ValueError("x-multiple maps expect an integral model")
        get_f, get_g, F = self._division_ladder()
        if k % 2:
            den = _mul(get_f(k), get_f(k))
            num = _sub([0] + den, _mul(F, _mul(get_g(k - 1), get_g(k + 1))))
        else:
            den = _mul(F, _mul(get_g(k), get_g(k)))
            num = _sub([0] + den, _mul(get_f(k - 1), get_f(k + 1)))
        return QPoly(num), QPoly(den)

    def _division_ladder(self):
        """(get_f, get_g, F) on int lists: psi_k for odd k, psi_k / psi_2 for
        even k, and F = 4x^3 + b2 x^2 + 2 b4 x + b6 = psi_2^2."""
        b2, b4, b6, b8 = (int(v) for v in (self.b2, self.b4, self.b6, self.b8))
        F = [b6, 2 * b4, b2, 4]
        f: dict[int, list[int]] = {
            1: [1],
            3: [b8, 3 * b6, 3 * b4, b2, 3],
        }
        g: dict[int, list[int]] = {
            0: [],
            2: [1],
            4: [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6,
                10 * b8, 10 * b6, 5 * b4, b2, 2],
        }
        F2 = _mul(F, F)

        def sq(a):
            return _mul(a, a)

        def cube(a):
            return _mul(a, sq(a))

        def get_f(k: int) -> list[int]:
            if k not in f:
                m = (k - 1) // 2
                if m % 2 == 0:
                    f[k] = _sub(_mul(_mul(F2, get_g(m + 2)), cube(get_g(m))),
                                _mul(get_f(m - 1), cube(get_f(m + 1))))
                else:
                    f[k] = _sub(_mul(get_f(m + 2), cube(get_f(m))),
                                _mul(_mul(F2, get_g(m - 1)), cube(get_g(m + 1))))
            return f[k]

        def get_g(k: int) -> list[int]:
            if k not in g:
                m = k // 2
                if m % 2 == 0:
                    g[k] = _mul(get_g(m), _sub(_mul(get_g(m + 2), sq(get_f(m - 1))),
                                               _mul(get_g(m - 2), sq(get_f(m + 1)))))
                else:
                    g[k] = _mul(get_f(m), _sub(_mul(get_f(m + 2), sq(get_g(m - 1))),
                                               _mul(get_f(m - 2), sq(get_g(m + 1)))))
            return g[k]

        return get_f, get_g, F


# ---------------------------------------------------------------------------
# Group law over an arbitrary field, duck typed
# ---------------------------------------------------------------------------

Point = tuple | None  # affine (x, y) or None for the point at infinity


def point_neg(ainvs, P: Point) -> Point:
    if P is None:
        return None
    a1, _, a3, _, _ = ainvs
    x, y = P
    return (x, -y - a1 * x - a3)


def point_add(ainvs, P: Point, Q: Point) -> Point:
    """Chord-tangent addition with the full a1..a6 formulas."""
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, a6 = ainvs
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y2 == -y1 - a1 * x2 - a3:
            return None
        # tangent line; the denominator vanishes exactly on 2-torsion,
        # which the branch above already caught
        den = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
        nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) / den
    else:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (x3, y3)


def scalar_mul(ainvs, n: int, P: Point) -> Point:
    if n < 0:
        return scalar_mul(ainvs, -n, point_neg(ainvs, P))
    acc: Point = None
    base = P
    while n:
        if n & 1:
            acc = point_add(ainvs, acc, base)
        base = point_add(ainvs, base, base)
        n >>= 1
    return acc


def frobenius_traces(model: WeierstrassModel, ells: Iterable[int]) -> list[int]:
    """[a_ell for ell in ells], a_ell = ell + 1 - #E(F_ell), for primes ell
    of good reduction.

    The model must be integral with no ell dividing the discriminant;
    such a model is automatically minimal at each ell.  b2, b4, b6 and
    the discriminant are read as ints once.  For odd ell the count runs
    on plain ints: completing the square in y gives
    a_ell = -sum_x chi(F(x)), F(x) = 4x^3 + b2 x^2 + 2 b4 x + b6, chi the
    quadratic character mod ell read off a table of squares.  F steps
    from x to x + 1 by finite differences mod ell; the third is 24.
    For ell = 2 the four affine pairs (x, y) are checked directly.
    """
    if not model.is_integral:
        raise ValueError("pass an integral model")
    b2, b4, b6, disc = (int(v) for v in (model.b2, model.b4, model.b6, model.discriminant))
    traces = []
    for ell in ells:
        if ell > COUNT_LIMIT or not is_prime(ell):
            raise ValueError(f"ell must be a prime <= {COUNT_LIMIT}, got {ell}")
        if disc % ell == 0:
            raise ValueError(f"{ell} divides the discriminant; minimize and check reduction first")
        if ell == 2:
            a1, a2, a3, a4, a6 = (int(v) for v in model.a_invariants)
            affine = sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
                         for x in (0, 1) for y in (0, 1))
            a = 2 - affine
        else:
            chi = [-1] * ell
            chi[0] = 0
            for i in range(1, ell // 2 + 1):
                chi[i * i % ell] = 1
            # F(0) and its first and second differences at 0
            f, d1, d2 = b6 % ell, (4 + b2 + 2 * b4) % ell, (24 + 2 * b2) % ell
            a = 0
            for _ in range(ell):
                a -= chi[f]
                f, d1, d2 = (f + d1) % ell, (d1 + d2) % ell, (d2 + 24) % ell
        assert a * a <= 4 * ell, "Hasse bound violated; counting bug"
        traces.append(a)
    return traces


def trace_of_frobenius(model: WeierstrassModel, ell: int) -> int:
    """a_ell = ell + 1 - #E(F_ell) for a prime ell of good reduction:
    frobenius_traces at the one prime ell, with the same checks."""
    return frobenius_traces(model, (ell,))[0]
