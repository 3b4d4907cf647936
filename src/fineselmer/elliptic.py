"""Weierstrass models: invariants, coordinate changes, reduction, traces.

A model is the quintuple [a1, a2, a3, a4, a6] with rational entries and
nonzero discriminant.  The b- and c-invariants are computed once at
construction and double-checked against the identities
4*b8 = b2*b6 - b4^2 and 1728*Delta = c4^3 - c6^2, so a silent formula
slip cannot survive the constructor.  An integral model stores its
twelve attributes (a-, b-, c-invariants, discriminant) as ints, and any
other model all twelve as Fractions; one formula body serves both, and
a change of model divides by u^k through Fraction, never as int / int.
The j-invariant is a Fraction either way.  Entries are ints,
Fractions or strings such as '1/2'; a float is refused with TypeError.

The group law is written against duck-typed field elements (anything
with +, -, *, / and ==): the same code path serves exact rational
points and reductions mod ell.  Division polynomials use the standard
f/g bisection ladder so the y-variable is eliminated once and for all;
odd n gives a univariate polynomial of degree (n^2-1)/2 with leading
coefficient n whose roots are the x-coordinates of the nonzero
n-torsion.  The model is integral, so the ladder (and the x-multiple
maps built on it) runs on integer lists; division_polynomial and
x_multiple_fraction return QPolys, and x_multiple_coeffs the lists.
Each model object has one ladder: built on first use, kept with the
object in one slot, and extended as larger n are asked for, so every
division polynomial and x-multiple map of one model reads the same
ladder.  Nothing is kept at module level; a new model builds its own.
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
    "LADDER_MAX",
]

COUNT_LIMIT = 10**6
LADDER_MAX = 13  # the division-polynomial ladder's top n, and so the cap on p


def _exact(values) -> tuple:
    """values as ints if every one is integral, else all as Fractions.
    A float is refused: its binary value is not the rational its digits
    spell, so 0.1 would enter as 3602879701896397/2^55."""
    for v in values:
        if isinstance(v, float):
            raise TypeError(f"{v!r} is a float; pass an int, a Fraction or a "
                            "string such as '1/2'")
    exact = tuple(v if type(v) in (int, Fraction) else Fraction(v) for v in values)
    if all(v.denominator == 1 for v in exact):
        return tuple(v.numerator for v in exact)
    return tuple(map(Fraction, exact))


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
                 "c4", "c6", "discriminant", "_ladder")

    def __init__(self, a1, a2, a3, a4, a6):
        a = _exact((a1, a2, a3, a4, a6))
        invariants = _invariants(*a)
        if invariants[-1] == 0:
            raise ValueError("singular model: discriminant is zero")
        for name, val in zip(self.__slots__, a + invariants + (None,)):
            object.__setattr__(self, name, val)

    def __setattr__(self, name, value):
        raise AttributeError("WeierstrassModel is immutable")

    def __reduce__(self):
        # rebuilt and re-checked by the constructor; the ladder is not carried
        return type(self), self.a_invariants

    @property
    def a_invariants(self) -> tuple[int, int, int, int, int] | tuple[Fraction, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def j_invariant(self) -> Fraction:
        return Fraction(self.c4**3, self.discriminant)

    @property
    def is_integral(self) -> bool:
        return type(self.a1) is int

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
        u, r, s, t = _exact((u, r, s, t))
        if u == 0:
            raise ValueError("u must be nonzero")
        moved = _shifted(*self.a_invariants, r, s, t)
        if u != 1:
            moved = (Fraction(v, u**k) for v, k in zip(moved, (1, 2, 3, 4, 6)))
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
        return tuple(field.element(v) for v in self.a_invariants)

    # -- division polynomials -------------------------------------------------

    def division_polynomial(self, n: int) -> QPoly:
        """Univariate n-division polynomial for odd 3 <= n <= LADDER_MAX.

        Integral models only, so the output has integer coefficients.  It
        is read off the model's one ladder, which is kept with the model.
        """
        if n % 2 == 0 or not 3 <= n <= LADDER_MAX:
            raise ValueError(f"implemented for odd n between 3 and {LADDER_MAX}")
        if not self.is_integral:
            raise ValueError("division polynomials expect an integral model")
        poly = QPoly(_ladder_psi(self._psi_ladder(), n))
        expected_deg = (n * n - 1) // 2
        if poly.degree != expected_deg or poly.leading != n:
            raise AssertionError("division polynomial shape check failed")
        return poly

    def x_multiple_fraction(self, k: int) -> tuple[QPoly, QPoly]:
        """x_multiple_coeffs(k) as QPolys."""
        num, den = self.x_multiple_coeffs(k)
        return QPoly(num), QPoly(den)

    def x_multiple_coeffs(self, k: int) -> tuple[list[int], list[int]]:
        """The integer coefficient lists (num, den) of x([k]P) = num(x)/den(x),
        2 <= k <= LADDER_MAX; deg num = k^2 > deg den.

        Uses psi_{k-1} psi_{k+1} / psi_k^2 = x - x([k]P); the y-carrying
        factor psi_2 appears squared throughout, so everything collapses
        to the univariate ladder, the model's one ladder that
        division_polynomial reads too. Integral models only.
        """
        if not 2 <= k <= LADDER_MAX:
            raise ValueError("k out of the supported ladder range")
        if not self.is_integral:
            raise ValueError("x-multiple maps expect an integral model")
        ladder = self._psi_ladder()
        den = _mul(_ladder_psi(ladder, k), _ladder_psi(ladder, k))
        cross = _mul(_ladder_psi(ladder, k - 1), _ladder_psi(ladder, k + 1))
        # psi_2^2 = F goes with the even-index side
        if k % 2:
            cross = _mul(ladder[1], cross)
        else:
            den = _mul(ladder[1], den)
        return _sub([0] + den, cross), den

    def _psi_ladder(self):
        """The model's ladder: built by _division_ladder on first use, then kept."""
        if self._ladder is None:
            object.__setattr__(self, "_ladder", self._division_ladder())
        return self._ladder

    def _division_ladder(self):
        """(table, F, F^2) on int lists, F = 4x^3 + b2 x^2 + 2 b4 x + b6 =
        psi_2^2. The table maps odd k to psi_k and even k to psi_k / psi_2;
        it starts at 1 <= k <= 4, and _ladder_psi adds the rest as asked."""
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        F = [b6, 2 * b4, b2, 4]
        table = {1: [1], 2: [1], 3: [b8, 3 * b6, 3 * b4, b2, 3],
                 4: [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6,
                     10 * b8, 10 * b6, 5 * b4, b2, 2]}
        return table, F, _mul(F, F)


def _ladder_psi(ladder, k: int) -> list[int]:
    """Entry t_k of the ladder's table, added with the entries it needs if
    missing.  In t_k = psi_k for odd k and psi_k / psi_2 for even k, the
    bisection formulas read t_(2m) = t_m (t_(m+2) t_(m-1)^2 - t_(m-2) t_(m+1)^2)
    and t_(2m+1) = t_(m+2) t_m^3 - t_(m-1) t_(m+1)^3, whose product of
    even-index entries also takes the factor psi_2^4 = F^2."""
    table, _, F2 = ladder
    if k not in table:
        m = k // 2
        a, b, c, d = (_ladder_psi(ladder, i) for i in (m + 2, m, m - 1, m + 1))
        if k % 2:
            left, right = _mul(a, _mul(b, _mul(b, b))), _mul(c, _mul(d, _mul(d, d)))
            if m % 2:
                right = _mul(F2, right)
            else:
                left = _mul(F2, left)
            table[k] = _sub(left, right)
        else:
            e = _ladder_psi(ladder, m - 2)
            table[k] = _mul(b, _sub(_mul(a, _mul(c, c)), _mul(e, _mul(d, d))))
    return table[k]


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
    such a model is automatically minimal at each ell.  For odd ell the
    count runs on plain ints: completing the square in y gives
    a_ell = -sum_x chi(F(x)), F(x) = 4x^3 + b2 x^2 + 2 b4 x + b6, chi the
    quadratic character mod ell read off a table of squares.  F steps
    from x to x + 1 by finite differences mod ell; the third is 24.
    For ell = 2 the four affine pairs (x, y) are checked directly.
    """
    if not model.is_integral:
        raise ValueError("pass an integral model")
    b2, b4, b6, disc = model.b2, model.b4, model.b6, model.discriminant
    traces = []
    for ell in ells:
        if ell > COUNT_LIMIT or not is_prime(ell):
            raise ValueError(f"ell must be a prime <= {COUNT_LIMIT}, got {ell}")
        if disc % ell == 0:
            raise ValueError(f"{ell} divides the discriminant; minimize and check reduction first")
        if ell == 2:
            a1, a2, a3, a4, a6 = model.a_invariants
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
        if a * a > 4 * ell:
            raise AssertionError("Hasse bound violated; counting bug")
        traces.append(a)
    return traces


def trace_of_frobenius(model: WeierstrassModel, ell: int) -> int:
    """a_ell = ell + 1 - #E(F_ell) for a prime ell of good reduction:
    frobenius_traces at the one prime ell, with the same checks."""
    return frobenius_traces(model, (ell,))[0]
