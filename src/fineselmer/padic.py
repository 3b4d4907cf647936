"""Precision-tracked arithmetic over Q_p, Hensel lifting, Z_p-root search.

A PadicNumber is p^val * unit with the unit known modulo p^(absprec-val);
absprec is absolute precision in p-adic digits. "Zero to precision N"
(val = N, unit = 0) is the honest encoding of an element only known to be
divisible by p^N. Precision combines pessimistically: addition keeps the
smaller absolute precision, multiplication the smaller relative
precision. Nothing ever claims digits it cannot justify, which the
property tests check against exact integer arithmetic.

The root machinery works on integer polynomials. hensel_lift is Newton
iteration under the general criterion v(f(r0)) > 2 v(f'(r0));
padic_roots finds every root in Z_p by scanning the residues mod p,
lifting those with a unit derivative, and recursing on f(r0 + p x)/p^e
for the rest, to the fixed depth DEPTH_BUDGET; the lift and the shifts
run on integer coefficient lists with the kernels of polynomial.
Exhausting the budget produces an explicit inconclusive marker, never a
silent omission.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .factorization import SQUAREFREE_TRIES, good_reduction
from .modular import valuation
from .polynomial import QPoly, _compose_linear, _derivative, _horner

__all__ = [
    "PadicNumber",
    "NoLiftError",
    "PadicRoots",
    "hensel_lift",
    "padic_roots",
    "DEFAULT_PRECISION",
    "DEPTH_BUDGET",
]

DEFAULT_PRECISION = 32
DEPTH_BUDGET = 16


class NoLiftError(Exception):
    """The Hensel criterion v(f(r0)) > 2 v(f'(r0)) fails at this seed."""


class PadicNumber:
    """An element of Q_p known to finite precision; immutable."""

    __slots__ = ("p", "val", "unit", "absprec")

    def __init__(self, p: int, val: int, unit: int, absprec: int):
        if unit == 0:
            # certified zero to precision absprec; normalize val to absprec
            val = absprec
        else:
            rel = absprec - val
            if rel <= 0:
                raise ValueError("nonzero element needs positive relative precision")
            unit %= p**rel
            if unit % p == 0:
                raise ValueError("unit part must be a p-adic unit")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "absprec", absprec)

    def __setattr__(self, name, value):
        raise AttributeError("PadicNumber is immutable")

    @classmethod
    def from_int(cls, n: int, p: int, absprec: int) -> "PadicNumber":
        n %= p**absprec
        if n == 0:
            return cls(p, absprec, 0, absprec)
        v = valuation(n, p)
        return cls(p, v, n // p**v, absprec)

    @classmethod
    def from_rational(cls, q: Fraction, p: int, absprec: int) -> "PadicNumber":
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
    def zero(cls, p: int, absprec: int) -> "PadicNumber":
        return cls(p, absprec, 0, absprec)

    @property
    def is_zero(self) -> bool:
        """True iff certified zero to the working precision (not 'exactly zero')."""
        return self.unit == 0

    @property
    def relprec(self) -> int:
        return 0 if self.unit == 0 else self.absprec - self.val

    def lift(self) -> int:
        """Integer representative in [0, p^absprec); integral elements only."""
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise ValueError("no integer representative: negative valuation")
        return self.unit * self.p**self.val % self.p**self.absprec

    def _check_partner(self, other: "PadicNumber") -> None:
        if not isinstance(other, PadicNumber) or other.p != self.p:
            raise TypeError("PadicNumber arithmetic requires matching primes")

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_partner(other)
        absprec = min(self.absprec, other.absprec)
        m = min(self.val, other.val)  # zero-certified has val = absprec
        if m >= absprec:
            return PadicNumber.zero(self.p, absprec)
        total = 0
        if self.unit != 0:
            total += self.unit * self.p ** (self.val - m)
        if other.unit != 0:
            total += other.unit * self.p ** (other.val - m)
        total %= self.p ** (absprec - m)
        if total == 0:
            return PadicNumber.zero(self.p, absprec)
        w = valuation(total, self.p)
        return PadicNumber(self.p, m + w, total // self.p**w, absprec)

    def __neg__(self) -> "PadicNumber":
        if self.unit == 0:
            return self
        rel = self.relprec
        return PadicNumber(self.p, self.val, (-self.unit) % self.p**rel, self.absprec)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other) -> "PadicNumber":
        if isinstance(other, int):
            # exact integer scalar: no relative precision is lost
            if other == 0:
                return PadicNumber.zero(self.p, self.absprec + 1)
            v = valuation(other, self.p)
            if self.unit == 0:
                return PadicNumber.zero(self.p, self.absprec + v)
            rel = self.relprec
            unit = self.unit * (other // self.p**v) % self.p**rel
            return PadicNumber(self.p, self.val + v, unit, self.val + v + rel)
        self._check_partner(other)
        if self.unit == 0 or other.unit == 0:
            # 0-to-N times something of valuation v is 0 to N + v
            if self.unit == 0 and other.unit == 0:
                return PadicNumber.zero(self.p, self.absprec + other.absprec)
            z, nz = (self, other) if self.unit == 0 else (other, self)
            return PadicNumber.zero(self.p, z.absprec + nz.val)
        rel = min(self.relprec, other.relprec)
        val = self.val + other.val
        unit = self.unit * other.unit % self.p**rel
        return PadicNumber(self.p, val, unit, val + rel)

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        if self.unit == 0:
            raise ZeroDivisionError("cannot invert an element certified zero")
        rel = self.relprec
        inv_unit = pow(self.unit, -1, self.p**rel)
        return PadicNumber(self.p, -self.val, inv_unit, -self.val + rel)

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_partner(other)
        return self * other.inverse()

    def agrees_with(self, other: "PadicNumber") -> bool:
        """True iff the two elements coincide to their common precision."""
        return (self - other).unit == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PadicNumber)
            and (other.p, other.val, other.unit, other.absprec)
            == (self.p, self.val, self.unit, self.absprec)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.val, self.unit, self.absprec))

    def __repr__(self) -> str:
        if self.unit == 0:
            return f"O({self.p}^{self.absprec})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.absprec})"


# ---------------------------------------------------------------------------
# Hensel lifting and root search
# ---------------------------------------------------------------------------


def hensel_lift(f: QPoly, r0: int, p: int, absprec: int = DEFAULT_PRECISION) -> PadicNumber:
    """Newton-lift the approximate root r0 of f to absolute precision absprec.

    Requires v(f(r0)) > 2 v(f'(r0)) and raises NoLiftError otherwise, and
    raises ValueError for absprec < 1, as padic_roots does. The
    returned root r satisfies v(f(r)) >= absprec and is congruent to r0
    modulo p^(v(f'(r0)) + 1). f must have integer coefficients.
    """
    if absprec < 1:
        raise ValueError("absprec must be positive")
    return _newton_lift(f.int_coeffs(), r0, p, absprec)


def _newton_lift(coeffs: list[int], r0: int, p: int, absprec: int) -> PadicNumber:
    """hensel_lift on the integer coefficient list of f."""
    dcoeffs = _derivative(coeffs)
    fr = _horner(coeffs, r0)
    if fr == 0:
        return PadicNumber.from_int(r0, p, absprec)
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
            return PadicNumber.from_int(root, p, absprec)
        dfr = _horner(dcoeffs, r)
        u = dfr // p**b
        delta = (fr // p**b) * pow(u, -1, big) % big
        r = (r - delta) % big
    raise AssertionError("Newton iteration failed to converge; this is a bug")


@dataclass(frozen=True)
class PadicRoots:
    """Result of a Z_p-root search.

    certified: every entry is a genuine root to its precision (Newton
    verified). complete is True iff no branch of the residue tree was
    abandoned, i.e. the certified tuple provably contains all Z_p-roots.
    """

    certified: tuple[PadicNumber, ...]
    inconclusive: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.inconclusive


def padic_roots(
    f: QPoly,
    p: int,
    absprec: int = DEFAULT_PRECISION,
) -> PadicRoots:
    """All roots of f in Z_p, certified to absolute precision absprec.

    Multiple roots are reported once (the search runs on the squarefree
    part; certification of v(f(root)) >= absprec still holds for the
    original f because a congruence r = root mod p^N forces
    f(r) = f(root) = 0 mod p^N for integral f).  A good prime among the
    first SQUAREFREE_TRIES candidates of factorization.good_reduction
    proves f squarefree, and then the search runs on f's primitive part
    as it stands; the squarefree part over Q, a rational Euclid, is
    computed only when none of them is good.  A division polynomial is
    squarefree, so delta_v never needs that Euclid.

    The recursion stops at the constant depth DEPTH_BUDGET, and the depth
    equals the scale, so at absprec > DEPTH_BUDGET no branch reports
    "precision exhausted" and the residue classes visited do not depend
    on absprec: complete and the inconclusive markers are the same at
    any two such a and b, and the roots agree mod p^min(a, b).
    """
    if f.is_zero:
        raise ValueError("zero polynomial has every element as root")
    if absprec < 1:
        raise ValueError("absprec must be positive")
    work = f.primitive()
    if good_reduction(work, SQUAREFREE_TRIES) is None:
        work = f.squarefree_part().primitive()
    if work.degree == 0:
        return PadicRoots((), ())
    coeffs = work.int_coeffs()

    certified: list[PadicNumber] = []
    inconclusive: list[str] = []

    def search(cs: list[int], depth: int, base: int, scale: int) -> None:
        # roots of cs correspond to base + p^scale * x for roots x of cs
        dcs = _derivative(cs)
        for rbar in range(p):
            fr = _horner(cs, rbar)
            if fr % p != 0:
                continue
            dfr = _horner(dcs, rbar)
            target = absprec - scale
            if target <= 0:
                # the class is flat to working precision but no root is
                # separated inside it; raising absprec resolves this
                inconclusive.append(
                    f"residue {base + rbar * p**scale} mod {p}^{scale + 1}: precision exhausted"
                )
                continue
            if dfr % p != 0:
                # unit derivative: classical Hensel, and the lifted root is
                # the only one in this residue class
                root = _newton_lift(cs, rbar, p, target)
                certified.append(
                    PadicNumber.from_int(base + root.lift() * p**scale, p, absprec)
                )
                continue
            # non-unit derivative: the class may hold zero, one, or several
            # roots; zoom in.  Splitting always strips at least one power of
            # p since every coefficient of cs(rbar + p x) is divisible by p.
            if depth >= DEPTH_BUDGET:
                inconclusive.append(
                    f"residue {base + rbar * p**scale} mod {p}^{scale + 1}: depth budget exhausted"
                )
                continue
            shifted = _compose_linear(cs, p, rbar)
            e = min(valuation(c, p) for c in shifted if c != 0)
            reduced = [c // p**e for c in shifted]
            search(reduced, depth + 1, base + rbar * p**scale, scale + 1)

    search(coeffs, 0, 0, 0)
    certified.sort(key=lambda r: r.lift())
    return PadicRoots(tuple(certified), tuple(inconclusive))
