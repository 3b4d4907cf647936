"""Arithmetic in Z_p[pi] for pi = zeta_p - 1, root finding there, and the
ramified local-torsion oracle for delta_v over Q(mu_p).

The minimal polynomial of pi is g(x) = ((1+x)^p - 1)/x, an Eisenstein
polynomial of degree p - 1.  EisensteinElement stores an element by its
coordinates in the power basis 1, pi, ..., pi^(p-2) with entries in
oracles.QpNumber, the p-adics with field arithmetic.  The pi-adic
valuation of sum(c_i pi^i) is min over i of (p-1) v_p(c_i) + i; the
minimum is attained at a single index because the candidate values are
pairwise distinct mod p - 1, so the formula is exact, not a bound.

eisenstein_roots mirrors the Z_p root search one level up: residue
enumeration in O/pi = F_p, Newton lifting where the derivative is a
unit, and substitution x -> r + pi*x with content stripping where it is
not, under the same depth budget and with the same honest inconclusive
markers.

The package decides delta_v over Q(mu_p) by a congruence alone; this
search is kept here only as an independent oracle for that congruence.
The oracle for the arithmetic itself is exact: Z[x] modulo the minimal
polynomial of pi, computed with Fraction coefficients via QPoly. Every
tracked-precision EisensteinElement operation must agree coordinatewise
with the exact model.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from fineselmer.elliptic import WeierstrassModel, trace_of_frobenius
from fineselmer.localdata import delta_v, tate_reduction
from fineselmer.padic import DEFAULT_PRECISION, DEPTH_BUDGET
from fineselmer.polynomial import QPoly
from oracles import QpNumber


class PrecisionError(Exception):
    """Raised when the working precision cannot support a requested step."""


def eisenstein_minimal_poly(p: int) -> QPoly:
    """g(x) = ((1+x)^p - 1)/x, the minimal polynomial of zeta_p - 1."""
    return QPoly([comb(p, j + 1) for j in range(p)])


class EisensteinElement:
    """Element of Q_p(pi) as coordinates over the power basis of pi."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords: tuple[QpNumber, ...]):
        if len(coords) != p - 1:
            raise ValueError(f"need {p - 1} coordinates, got {len(coords)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, name, value):
        raise AttributeError("EisensteinElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, p: int, absprec: int = DEFAULT_PRECISION) -> "EisensteinElement":
        zero = QpNumber.zero(p, absprec)
        return cls(p, (QpNumber.from_int(n, p, absprec),) + (zero,) * (p - 2))

    @classmethod
    def zero(cls, p: int, absprec: int = DEFAULT_PRECISION) -> "EisensteinElement":
        return cls(p, (QpNumber.zero(p, absprec),) * (p - 1))

    @classmethod
    def pi(cls, p: int, absprec: int = DEFAULT_PRECISION) -> "EisensteinElement":
        zero = QpNumber.zero(p, absprec)
        one = QpNumber.from_int(1, p, absprec)
        coords = [zero] * (p - 1)
        coords[1] = one
        return cls(p, tuple(coords))

    @classmethod
    def from_digits(cls, digits: list[int], p: int, absprec: int = DEFAULT_PRECISION) -> "EisensteinElement":
        """sum(digits[i] * pi^i) for 0 <= i < p-1, digits arbitrary ints."""
        if len(digits) > p - 1:
            raise ValueError("too many digits for the power basis")
        padded = list(digits) + [0] * (p - 1 - len(digits))
        return cls(p, tuple(QpNumber.from_int(d, p, absprec) for d in padded))

    # -- valuation ---------------------------------------------------------

    def valuation_lower_bound(self) -> int:
        """Largest n such that v_pi(self) >= n is certified."""
        bound = None
        for i, c in enumerate(self.coords):
            contrib = (self.p - 1) * (c.absprec if c.unit == 0 else c.val) + i
            bound = contrib if bound is None else min(bound, contrib)
        return bound

    def valuation(self) -> int:
        """Exact v_pi, or PrecisionError if a zero-certified coordinate
        could hide a smaller term."""
        best = None
        for i, c in enumerate(self.coords):
            if c.unit == 0:
                continue
            v = (self.p - 1) * c.val + i
            best = v if best is None else min(best, v)
        if best is None:
            raise PrecisionError("element is zero to working precision")
        for i, c in enumerate(self.coords):
            if c.unit == 0 and (self.p - 1) * c.absprec + i <= best:
                raise PrecisionError("valuation not separated at this precision")
        return best

    def valuation_at_least(self, n: int) -> bool:
        return self.valuation_lower_bound() >= n

    @property
    def is_zero_to_precision(self) -> bool:
        return all(c.unit == 0 for c in self.coords)

    def residue(self) -> int:
        """Image in O/pi = F_p.  Requires v_pi >= 0 certified."""
        if self.valuation_lower_bound() < 0:
            raise PrecisionError("residue needs a pi-integral element")
        c0 = self.coords[0]
        if c0.unit == 0 or c0.val >= 1:
            return 0
        return c0.unit % self.p

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "EisensteinElement":
        if isinstance(other, EisensteinElement):
            if other.p != self.p:
                raise TypeError("mixed primes")
            return other
        if isinstance(other, int):
            prec = max(c.absprec for c in self.coords)
            return EisensteinElement.from_int(other, self.p, prec)
        raise TypeError(f"cannot coerce {type(other).__name__}")

    def __add__(self, other) -> "EisensteinElement":
        o = self._coerce(other)
        return EisensteinElement(self.p, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self) -> "EisensteinElement":
        return EisensteinElement(self.p, tuple(-c for c in self.coords))

    def __sub__(self, other) -> "EisensteinElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "EisensteinElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "EisensteinElement":
        if isinstance(other, int):
            return EisensteinElement(self.p, tuple(c * other for c in self.coords))
        o = self._coerce(other)
        p = self.p
        n = p - 1
        prod: list[QpNumber | None] = [None] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            for j, b in enumerate(o.coords):
                term = a * b
                prod[i + j] = term if prod[i + j] is None else prod[i + j] + term
        # reduce with pi^(p-1) = -sum_{j<p-1} C(p, j+1) pi^j
        gtail = [comb(p, j + 1) for j in range(n)]
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k]
            if c is None:
                continue
            prod[k] = None
            for j in range(n):
                term = c * (-gtail[j])
                idx = k - n + j
                prod[idx] = term if prod[idx] is None else prod[idx] + term
        # a structurally absent coefficient is exactly zero, so give it a
        # precision that never becomes the binding constraint
        zprec = max(c.absprec for c in self.coords) + max(c.absprec for c in o.coords)
        filled = tuple(
            c if c is not None else QpNumber.zero(p, zprec) for c in prod[:n]
        )
        return EisensteinElement(p, filled)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "EisensteinElement":
        if e < 0:
            return self.inverse() ** (-e)
        prec = max(c.absprec for c in self.coords)
        acc = EisensteinElement.from_int(1, self.p, prec)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self) -> "EisensteinElement":
        """Solve self * y = 1 by Gaussian elimination on the multiplication
        matrix, pivoting on the entry of smallest valuation."""
        p = self.p
        n = p - 1
        cols = []
        piel = EisensteinElement.pi(p, max(c.absprec for c in self.coords))
        power = EisensteinElement.from_int(1, p, max(c.absprec for c in self.coords))
        for _ in range(n):
            cols.append((self * power).coords)
            power = power * piel
        # rows of the system: sum_j M[i][j] y_j = e0[i]
        M = [[cols[j][i] for j in range(n)] for i in range(n)]
        prec = max(c.absprec for c in self.coords)
        rhs: list[QpNumber] = [QpNumber.from_int(1, p, prec)] + [
            QpNumber.zero(p, prec) for _ in range(n - 1)
        ]
        for col in range(n):
            pivot_row, pivot_val = None, None
            for r in range(col, n):
                entry = M[r][col]
                if entry.unit == 0:
                    continue
                v = entry.val
                if pivot_val is None or v < pivot_val:
                    pivot_row, pivot_val = r, v
            if pivot_row is None:
                raise PrecisionError("singular to working precision; raise precision")
            M[col], M[pivot_row] = M[pivot_row], M[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
            inv_piv = M[col][col].inverse()
            for r in range(n):
                if r == col or M[r][col].unit == 0:
                    continue
                factor = M[r][col] * inv_piv
                M[r] = [a - factor * b for a, b in zip(M[r], M[col])]
                rhs[r] = rhs[r] - factor * rhs[col]
        ys = [rhs[i] * M[i][i].inverse() for i in range(n)]
        return EisensteinElement(p, tuple(ys))

    def __truediv__(self, other) -> "EisensteinElement":
        return self * self._coerce(other).inverse()

    def agrees_with(self, other: "EisensteinElement") -> bool:
        return all(a.agrees_with(b) for a, b in zip(self.coords, self._coerce(other).coords))

    def __repr__(self) -> str:
        parts = []
        for i, c in enumerate(self.coords):
            if c.unit == 0:
                continue
            parts.append(f"({c})*pi^{i}" if i else f"({c})")
        return " + ".join(parts) if parts else f"O(pi-adic zero, p={self.p})"


# ---------------------------------------------------------------------------
# Root search over O = Z_p[pi]
# ---------------------------------------------------------------------------


def _epoly_eval(coeffs: list[EisensteinElement], x: EisensteinElement) -> EisensteinElement:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _epoly_deriv(coeffs: list[EisensteinElement]) -> list[EisensteinElement]:
    return [c * i for i, c in enumerate(coeffs)][1:]


def _epoly_shift_scale(
    coeffs: list[EisensteinElement], r: int, p: int, prec: int
) -> list[EisensteinElement]:
    """coefficients of f(r + pi*x) from those of f(x)."""
    # Taylor shift by the integer r via repeated synthetic division
    shifted = list(coeffs)
    n = len(shifted)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            shifted[j] = shifted[j] + shifted[j + 1] * r
    piel = EisensteinElement.pi(p, prec)
    power = EisensteinElement.from_int(1, p, prec)
    out = []
    for c in shifted:
        out.append(c * power)
        power = power * piel
    return out


@dataclass(frozen=True)
class EisensteinRoots:
    """Roots in Z_p[pi]; same completeness semantics as PadicRoots."""

    certified: tuple[EisensteinElement, ...]
    inconclusive: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.inconclusive


def eisenstein_roots(
    f: QPoly,
    p: int,
    absprec: int | None = None,
    depth_budget: int = DEPTH_BUDGET,
) -> EisensteinRoots:
    """All roots of the integer polynomial f in the valuation ring Z_p[pi].

    absprec is the target pi-adic precision; the default is (p-1) times
    the default p-adic working precision.  Every certified root r comes
    with the guarantee v_pi(f(r)) >= absprec.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has every element as root")
    work = f.squarefree_part().primitive()
    if work.degree == 0:
        return EisensteinRoots((), ())
    if absprec is None:
        absprec = (p - 1) * DEFAULT_PRECISION
    # enough p-adic digits per coordinate to certify absprec pi-adic digits,
    # with slack for Newton division losses
    pad_prec = absprec // (p - 1) + 8

    base_coeffs = [
        EisensteinElement.from_int(c, p, pad_prec) for c in work.int_coeffs()
    ]

    certified: list[EisensteinElement] = []
    inconclusive: list[str] = []

    def newton(coeffs: list[EisensteinElement], seed: EisensteinElement, target: int) -> EisensteinElement | None:
        dcoeffs = _epoly_deriv(coeffs)
        r = seed
        for _ in range(target.bit_length() + 40):
            fr = _epoly_eval(coeffs, r)
            if fr.valuation_at_least(target):
                return r
            dfr = _epoly_eval(dcoeffs, r)
            try:
                if dfr.valuation_lower_bound() != 0:
                    return None
                r = r - fr * dfr.inverse()
            except PrecisionError:
                return None
        return None

    def search(coeffs: list[EisensteinElement], depth: int, base: EisensteinElement, scale: int) -> None:
        dcoeffs = _epoly_deriv(coeffs)
        for rbar in range(p):
            seed = EisensteinElement.from_int(rbar, p, pad_prec)
            fr = _epoly_eval(coeffs, seed)
            # nonzero coordinates give exact contributions, and zero-certified
            # ones bound from below by at least p-1, so < 1 means a genuine
            # unit value, not a precision artifact
            if fr.valuation_lower_bound() < 1:
                continue
            target = absprec - scale
            label = f"pi-adic branch at depth {scale}, residue {rbar}"
            if target <= 0:
                inconclusive.append(f"{label}: precision exhausted")
                continue
            dfr = _epoly_eval(dcoeffs, seed)
            if dfr.valuation_lower_bound() == 0:
                # unit derivative: the class holds exactly one root
                root = newton(coeffs, seed, target)
                if root is None:
                    inconclusive.append(f"{label}: Newton failed to converge")
                    continue
                certified.append(base + root * EisensteinElement.pi(p, pad_prec) ** scale)
                continue
            if depth >= depth_budget:
                inconclusive.append(f"{label}: depth budget exhausted")
                continue
            shifted = _epoly_shift_scale(coeffs, rbar, p, pad_prec)
            if all(c.is_zero_to_precision for c in shifted):
                inconclusive.append(f"{label}: vanishing to precision, cannot strip")
                continue
            e = min(c.valuation_lower_bound() for c in shifted)
            if e > 0:
                pi_inv_e = EisensteinElement.pi(p, pad_prec).inverse() ** e
                shifted = [c * pi_inv_e for c in shifted]
            new_base = base + seed * EisensteinElement.pi(p, pad_prec) ** scale
            search(shifted, depth + 1, new_base, scale + 1)

    zero = EisensteinElement.zero(p, pad_prec)
    search(base_coeffs, 0, zero, 0)
    return EisensteinRoots(tuple(certified), tuple(inconclusive))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def qpoly(*coeffs: int) -> QPoly:
    return QPoly([Fraction(c) for c in coeffs])


def exact_reduce(f: QPoly, p: int) -> QPoly:
    return f % eisenstein_minimal_poly(p)


def exact_from_digits(digits: list[int]) -> QPoly:
    return QPoly([Fraction(d) for d in digits])


def agrees_with_exact(elem: EisensteinElement, exact: QPoly) -> bool:
    for i, coord in enumerate(elem.coords):
        model = QpNumber.from_rational(
            Fraction(exact.coeff(i)), elem.p, coord.absprec
        )
        if not coord.agrees_with(model):
            return False
    return True


def test_minimal_poly_is_eisenstein():
    for p in (3, 5, 7, 11):
        g = eisenstein_minimal_poly(p)
        assert g.degree == p - 1
        assert g.leading == 1
        coeffs = g.int_coeffs()
        assert coeffs[0] == p
        assert all(c % p == 0 for c in coeffs[:-1])
        assert coeffs[0] % (p * p) != 0


def test_minimal_poly_p5_explicit():
    assert list(eisenstein_minimal_poly(5).int_coeffs()) == [5, 10, 10, 5, 1]


def test_pi_satisfies_its_minimal_polynomial():
    for p in (3, 5, 7):
        pi = EisensteinElement.pi(p, absprec=24)
        acc = EisensteinElement.zero(p, absprec=24)
        for c in reversed(eisenstein_minimal_poly(p).int_coeffs()):
            acc = acc * pi + c
        assert acc.is_zero_to_precision


def test_valuation_is_exact_not_a_bound():
    p = 5
    pi = EisensteinElement.pi(p, absprec=20)
    five = EisensteinElement.from_int(5, p, absprec=20)
    assert pi.valuation() == 1
    assert five.valuation() == p - 1
    assert (pi * pi * five).valuation() == p + 1
    assert (1 + pi).valuation() == 0
    # mixed sum: min(4, 1) attained at the pi term, no cancellation possible
    assert (five + pi).valuation() == 1
    assert (five + pi * pi).valuation() == 2


def test_valuation_needs_nonzero_certificate():
    z = EisensteinElement.zero(5, absprec=12)
    with pytest.raises(PrecisionError):
        z.valuation()
    assert z.valuation_lower_bound() == 4 * 12
    assert z.is_zero_to_precision


def test_residue_map():
    p = 7
    pi = EisensteinElement.pi(p, absprec=16)
    assert EisensteinElement.from_int(23, p, 16).residue() == 23 % 7
    assert pi.residue() == 0
    assert (3 + pi * 5).residue() == 3
    bad = EisensteinElement(
        p, (QpNumber.from_rational(Fraction(1, 7), 7, 10),)
        + (QpNumber.zero(7, 10),) * 5
    )
    with pytest.raises(PrecisionError):
        bad.residue()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.data(),
)
def test_ring_ops_match_exact_model(p, data):
    digit = st.integers(-25, 25)
    da = data.draw(st.lists(digit, min_size=1, max_size=p - 1))
    db = data.draw(st.lists(digit, min_size=1, max_size=p - 1))
    a = EisensteinElement.from_digits(da, p, absprec=20)
    b = EisensteinElement.from_digits(db, p, absprec=20)
    ea = exact_from_digits(da)
    eb = exact_from_digits(db)
    assert agrees_with_exact(a + b, exact_reduce(ea + eb, p))
    assert agrees_with_exact(a - b, exact_reduce(ea - eb, p))
    assert agrees_with_exact(a * b, exact_reduce(ea * eb, p))
    assert agrees_with_exact(a * b + a, exact_reduce(ea * eb + ea, p))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 5]), st.data())
def test_powers_match_exact_model(p, data):
    digits = data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=p - 1))
    e = data.draw(st.integers(0, 5))
    elem = EisensteinElement.from_digits(digits, p, absprec=24)
    exact = QPoly.one()
    base = exact_from_digits(digits)
    for _ in range(e):
        exact = exact_reduce(exact * base, p)
    assert agrees_with_exact(elem ** e, exact)


def test_inverse_times_self_is_one():
    p = 5
    rng = random.Random(9)
    one = EisensteinElement.from_int(1, p, absprec=18)
    for _ in range(12):
        digits = [rng.randint(-20, 20) for _ in range(p - 1)]
        if digits[0] % p == 0:
            digits[0] += 1
        x = EisensteinElement.from_digits(digits, p, absprec=18)
        assert (x * x.inverse()).agrees_with(one)
        assert (x / x).agrees_with(one)


def test_inverse_of_ramified_element():
    p = 5
    pi = EisensteinElement.pi(p, absprec=16)
    prod = pi * pi.inverse()
    assert prod.agrees_with(EisensteinElement.from_int(1, p, absprec=16))
    with pytest.raises(PrecisionError):
        EisensteinElement.zero(p, 16).inverse()


def test_int_coercion_both_sides():
    p = 5
    pi = EisensteinElement.pi(p, absprec=14)
    left = 2 + pi
    right = pi + 2
    assert left.agrees_with(right)
    assert (3 - pi).agrees_with(-(pi - 3))
    assert (pi * 4).agrees_with(pi + pi + pi + pi)


# --- root search in Z_p[pi] ---


def test_minimal_polynomial_roots_are_the_conjugates():
    # the p-1 roots of g are zeta^k - 1 = (1+pi)^k - 1, all inside Z_p[pi]
    p = 5
    g = eisenstein_minimal_poly(p)
    result = eisenstein_roots(g, p, absprec=40)
    assert result.complete
    assert len(result.certified) == p - 1
    pi = EisensteinElement.pi(p, absprec=20)
    conjugates = [(1 + pi) ** k - 1 for k in range(1, p)]
    for conj in conjugates:
        assert any(
            (root - conj).valuation_at_least(15) for root in result.certified
        )
    # exactly one certified root is pi itself
    assert sum((root - pi).valuation_at_least(15) for root in result.certified) == 1


def test_certified_roots_satisfy_valuation_contract():
    p = 5
    target = 40
    for coeffs in ([5, 0, -1], [-2, 1], [5, 10, 10, 5, 1]):
        f = qpoly(*coeffs)
        result = eisenstein_roots(f, p, absprec=target)
        for root in result.certified:
            acc = EisensteinElement.zero(p, root.coords[0].absprec)
            for c in reversed(coeffs):
                acc = acc * root + c
            assert acc.valuation_at_least(target)


def test_ramified_square_root_of_p():
    # v_pi(5) = 4 is even and the unit 5/pi^4 has residue 4 = 2^2, so
    # x^2 - 5 gains the roots it lacks in Q_5
    result = eisenstein_roots(qpoly(-5, 0, 1), 5, absprec=30)
    assert result.complete
    assert len(result.certified) == 2
    for root in result.certified:
        assert root.valuation() == 2
    total = result.certified[0] + result.certified[1]
    assert total.valuation_at_least(25)  # the two roots are negatives


def test_unit_nonsquare_stays_rootless():
    # 7 = 2 mod 5 is not a square mod 5; ramifying cannot fix a unit class
    result = eisenstein_roots(qpoly(-7, 0, 1), 5, absprec=30)
    assert result.complete
    assert result.certified == ()


def test_rational_roots_found_with_correct_residues():
    result = eisenstein_roots(qpoly(-2, 1) * qpoly(-3, 1), 5, absprec=30)
    assert result.complete
    assert sorted(r.residue() for r in result.certified) == [2, 3]


def test_division_polynomial_reversal_has_ramified_root():
    # reversed 5-division polynomial of y^2 + y = x^3 - x^2 - 10x - 20:
    # kernel x-coordinates of the mu_5 line live at pi-valuation > 0 after
    # the x -> 1/x flip, which is how the ramified local-torsion test works
    model = WeierstrassModel(0, -1, 1, -10, -20)
    psi = model.division_polynomial(5)
    rev = QPoly(list(reversed([psi.coeff(i) for i in range(psi.degree + 1)])))
    result = eisenstein_roots(rev, 5, absprec=40)
    assert any(
        not r.is_zero_to_precision and r.valuation() > 0 for r in result.certified
    )


def test_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        eisenstein_roots(QPoly.zero(), 5)


# --- the ramified search as an oracle for delta_v over Q(mu_p) ---

# Cremona labels; the test skips the primes where a curve has bad reduction
ORACLE_CURVES = {
    "11a1": (0, -1, 1, -10, -20),
    "11a3": (0, -1, 1, 0, 0),
    "14a1": (1, 0, 1, 4, -6),
    "17a1": (1, -1, 1, -1, -14),
    "19a1": (0, 1, 1, -9, -15),
    "26b1": (1, -1, 1, -3, 3),
    "37a": (0, 0, 1, -1, 0),
    "49a1": (1, -1, 0, -2, -1),
}


@pytest.mark.parametrize("p", [3, 5])
def test_ramified_search_confirms_congruence(p):
    """delta_v over Q(mu_p) against the search over psi_p and its reversal.

    delta_v decides delta at the ramified place by a_p = 1 (mod p) alone.
    Whenever it says 2, the complete search in Z_p[pi] must find a
    certified torsion x-coordinate (the reversal catches the formal-group
    points, whose x has negative valuation).  Among these curves the
    a_p = 1 cases are 14a1 and 19a1 at p = 3 and 11a1 and 11a3 at p = 5.

    Only that direction is checked.  A root says nothing about y, and
    with a_p != 1 the search still finds an x-root whose y is not in K_v
    for 11a1 and 11a3 at p = 3, 26b1 at p = 5, and 19a1 and 37a at p = 7,
    so it cannot confirm delta = 0.

    p = 7 is left out for time: its only a_p = 1 case here, 26b1, takes
    8-11 s, against about 2 s for p = 3 and 5 together.
    """
    absprec = (p - 1) * DEFAULT_PRECISION
    confirmed = []
    for label, ainvs in ORACLE_CURVES.items():
        model = WeierstrassModel(*ainvs)
        red = tate_reduction(model, p)
        if not red.is_good:
            continue
        ap = trace_of_frobenius(red.minimal_model, p)
        result = delta_v(model, p, "Q(mu_p)")
        if (ap - 1) % p:
            assert (result.value, result.method) == (0, "reduction-congruence")
            continue
        assert (result.value, result.method) == (2, "ramified-congruence")
        psi = red.minimal_model.division_polynomial(p)
        rev = QPoly(list(reversed(psi.int_coeffs())))
        searches = [eisenstein_roots(f, p, absprec=absprec) for f in (psi, rev)]
        assert all(s.complete for s in searches), label
        assert any(s.certified for s in searches), label
        confirmed.append(label)
    assert confirmed, f"no a_{p} = 1 case: the oracle ran on nothing"
