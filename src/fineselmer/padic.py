"""Z_p-roots of integer polynomials, certified to a fixed precision.

A root is a PadicNumber: p^val * unit with the unit known modulo
p^(absprec-val), absprec being the absolute precision in p-adic digits.
"Zero to precision N" (val = N, unit = 0) is the honest encoding of an
element only known to be divisible by p^N. The package reads a root
only through lift(), so PadicNumber defines no arithmetic; the Q_p
field operations live with the test oracles.

padic_roots finds every root in Z_p by scanning the residues mod p,
Newton-lifting those with a unit derivative, and recursing on
f(r0 + p x)/p^e for the rest, to the fixed depth DEPTH_BUDGET; the lift
and the shifts run on integer coefficient lists with the kernels of
polynomial. Exhausting the budget produces an explicit inconclusive
marker, never a silent omission.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factorization import SQUAREFREE_TRIES, good_reduction
from .modular import valuation
from .polynomial import QPoly, _compose_linear, _derivative, _horner

__all__ = [
    "PadicNumber",
    "PadicRoots",
    "padic_roots",
    "DEFAULT_PRECISION",
    "DEPTH_BUDGET",
]

DEFAULT_PRECISION = 32
DEPTH_BUDGET = 16


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

    def __reduce__(self):
        return type(self), (self.p, self.val, self.unit, self.absprec)

    @classmethod
    def from_int(cls, n: int, p: int, absprec: int) -> "PadicNumber":
        n %= p**absprec
        if n == 0:
            return cls(p, absprec, 0, absprec)
        v = valuation(n, p)
        return cls(p, v, n // p**v, absprec)

    def lift(self) -> int:
        """Integer representative in [0, p^absprec); integral elements only."""
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise ValueError("no integer representative: negative valuation")
        return self.unit * self.p**self.val % self.p**self.absprec

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PadicNumber)
            and (other.p, other.val, other.unit, other.absprec)
            == (self.p, self.val, self.unit, self.absprec)
        )

    def __repr__(self) -> str:
        if self.unit == 0:
            return f"O({self.p}^{self.absprec})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.absprec})"


# ---------------------------------------------------------------------------
# Hensel lifting and root search
# ---------------------------------------------------------------------------


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
        fr = _horner(coeffs, r) % m
        if fr == 0:
            return r
        r = (r - fr * pow(_horner(dcoeffs, r), -1, m)) % m
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

    def search(cs: list[int], base: int, scale: int) -> None:
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
                    PadicNumber.from_int(base + root * p**scale, p, absprec)
                )
                continue
            # non-unit derivative: the class may hold zero, one, or several
            # roots; zoom in.  Splitting always strips at least one power of
            # p since every coefficient of cs(rbar + p x) is divisible by p.
            if scale >= DEPTH_BUDGET:
                inconclusive.append(
                    f"residue {base + rbar * p**scale} mod {p}^{scale + 1}: depth budget exhausted"
                )
                continue
            shifted = _compose_linear(cs, p, rbar)
            e = min(valuation(c, p) for c in shifted if c != 0)
            reduced = [c // p**e for c in shifted]
            search(reduced, base + rbar * p**scale, scale + 1)

    search(coeffs, 0, 0)
    certified.sort(key=lambda r: r.lift())
    return PadicRoots(tuple(certified), tuple(inconclusive))
