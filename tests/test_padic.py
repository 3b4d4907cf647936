"""p-adic numbers, Hensel lifting, and the certified Z_p-root finder.

Oracles used here:
  * Fraction arithmetic pushed through from_rational must commute with the
    PadicNumber field operations up to the tracked precision.
  * residues modulo p^6 found by exhaustive scan (all p^6 of them) pin down
    the root finder from both sides: certified roots reduce into the scan
    set, and every scan residue with unit derivative is matched by exactly
    one certified root whenever the finder claims completeness.
  * the search as it ran on the squarefree part over Q, with QPoly shifts,
    must give the same certified roots and inconclusive markers.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fineselmer.elliptic import WeierstrassModel
from fineselmer.modular import valuation
from fineselmer.padic import (
    DEFAULT_PRECISION,
    DEPTH_BUDGET,
    NoLiftError,
    PadicNumber,
    PadicRoots,
    hensel_lift,
    padic_roots,
)
from fineselmer.polynomial import QPoly, _derivative as _deriv, _horner as _eval_int
from oracles import compose_linear, padic_is_square


def qpoly(*coeffs: int) -> QPoly:
    return QPoly([Fraction(c) for c in coeffs])


def vp_or_none(n: int, p: int) -> int | None:
    return None if n == 0 else valuation(n, p)


# --- PadicNumber arithmetic against Fraction arithmetic ---

p_integral = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
).filter(lambda q: q.denominator % 5 != 0 and q.denominator % 7 != 0)


@settings(max_examples=60, deadline=None)
@given(p_integral, p_integral, st.sampled_from([5, 7]))
def test_field_ops_commute_with_fraction_lift(a, b, p):
    N = 12
    x = PadicNumber.from_rational(a, p, N)
    y = PadicNumber.from_rational(b, p, N)
    for op, expected in (
        (x + y, a + b),
        (x - y, a - b),
        (x * y, a * b),
    ):
        model = PadicNumber.from_rational(expected, p, op.absprec)
        assert op.agrees_with(model)
    if b != 0 and Fraction(b).numerator % p != 0:
        quot = x / y
        assert quot.agrees_with(PadicNumber.from_rational(a / b, p, quot.absprec))


def test_valuations_add_under_multiplication():
    p = 5
    for qa, qb in [(Fraction(25, 3), Fraction(7, 5)), (Fraction(1, 125), Fraction(50))]:
        x = PadicNumber.from_rational(qa, p, 20)
        y = PadicNumber.from_rational(qb, p, 20)
        va = valuation(qa.numerator, p) - valuation(qa.denominator, p)
        vb = valuation(qb.numerator, p) - valuation(qb.denominator, p)
        assert x.val == va and y.val == vb
        assert (x * y).val == va + vb


def test_precision_bookkeeping():
    p = 7
    x = PadicNumber.from_int(7, p, 10)  # val 1, relprec 9
    y = PadicNumber.from_int(3, p, 10)  # val 0, relprec 10
    assert x.relprec == 9 and y.relprec == 10
    # addition carries absolute precision min; multiplication loses relative
    # precision of the weaker factor shifted by the partner's valuation
    assert (x + y).absprec == 10
    prod = x * y
    assert prod.val == 1
    assert prod.lift() == 21
    inv = y.inverse()
    assert (inv * y).agrees_with(PadicNumber.from_int(1, p, inv.absprec))


def test_constructor_normalization_rules():
    with pytest.raises(ValueError):
        PadicNumber(5, 3, 1, 3)  # nonzero but zero relative precision
    with pytest.raises(ValueError):
        PadicNumber(5, 0, 10, 4)  # unit part divisible by p
    z = PadicNumber(5, 0, 0, 4)  # certified zero normalizes valuation
    assert z.is_zero and z.val == 4 and z.lift() == 0


def test_lift_rejects_negative_valuation():
    x = PadicNumber.from_rational(Fraction(1, 5), 5, 8)
    assert x.val == -1
    with pytest.raises(ValueError):
        x.lift()


def test_from_rational_below_precision_window_is_zero():
    # valuation 6 >= absprec 4: indistinguishable from zero at this precision
    x = PadicNumber.from_rational(Fraction(5**6), 5, 4)
    assert x.is_zero


def test_is_square_classification():
    p = 7
    assert padic_is_square(PadicNumber.from_int(2, p, 10)) is True  # 2 = 3^2 mod 7
    assert padic_is_square(PadicNumber.from_int(3, p, 10)) is False
    assert padic_is_square(PadicNumber.from_int(7, p, 10)) is False  # odd valuation
    assert padic_is_square(PadicNumber.from_int(49 * 2, p, 10)) is True
    assert padic_is_square(PadicNumber.zero(p, 10)) is None
    with pytest.raises(ValueError):
        padic_is_square(PadicNumber.from_int(1, 2, 10))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(-400, 400).filter(lambda n: n != 0),
    st.sampled_from([3, 5, 7, 11]),
)
def test_is_square_matches_definition(n, p):
    x = PadicNumber.from_int(n, p, 24)
    if x.is_zero:
        assert padic_is_square(x) is None
        return
    v = valuation(n, p)
    unit = n // p**v
    expected = v % 2 == 0 and pow(unit % p, (p - 1) // 2, p) == 1
    assert padic_is_square(x) is expected


# --- Hensel lifting ---


def test_hensel_lift_sqrt2_in_Q7():
    f = qpoly(-2, 0, 1)
    r = hensel_lift(f, 3, 7, absprec=30)
    assert r.lift() % 7 == 3
    assert pow(r.lift(), 2, 7**30) == 2 % 7**30


def test_hensel_lift_exact_integer_root():
    f = qpoly(-12, 0, 0, 3)  # 3x^3 - 12 has no integer root; use (x-4)(x+1)
    f = qpoly(-4, 1) * qpoly(1, 1)
    r = hensel_lift(f, 4, 5, absprec=10)
    assert r.lift() == 4


def test_hensel_lift_singular_start_needs_margin():
    # f = x^2 - 25 at p = 5: f'(5) = 10 has valuation 1, f(5) = 0 exactly,
    # so lifting from 5 works; from 10, f(10) = 75 with v = 2 <= 2*v(f') fails
    f = qpoly(-25, 0, 1)
    root = hensel_lift(f, 5, 5, absprec=12)
    assert root.lift() == 5
    with pytest.raises(NoLiftError):
        hensel_lift(f, 10, 5, absprec=12)


def test_hensel_lift_rejects_non_root():
    with pytest.raises(NoLiftError):
        hensel_lift(qpoly(1, 0, 1), 1, 7, absprec=8)


@pytest.mark.parametrize("absprec", [0, -1])
def test_hensel_lift_refuses_a_precision_below_one(absprec):
    # as padic_roots does; absprec 0 would return a vacuous O(7^0), and a
    # negative one would reach the Newton loop's convergence assertion.
    # Both the exact root 5 of x^2 - 25 and the approximate root 3 of
    # x^2 - 2 are refused
    for f, r0 in ((qpoly(-25, 0, 1), 5), (qpoly(-2, 0, 1), 3)):
        with pytest.raises(ValueError, match="absprec must be positive"):
            hensel_lift(f, r0, 7, absprec=absprec)


def test_hensel_lift_congruent_to_seed():
    # the documented congruence: result == r0 mod p^(v(f'(r0)) + 1); here
    # f'(r0) is a unit, so each seed keeps its residue class mod 5
    f = qpoly(-11, 0, 1)
    for seed in (1, 4):
        r = hensel_lift(f, seed, 5, absprec=20)
        assert r.lift() % 5 == seed
        assert pow(r.lift(), 2, 5**20) == 11


# --- certified root finder ---


def check_certified(f: QPoly, p: int, absprec: int) -> None:
    result = padic_roots(f, p, absprec=absprec)
    coeffs = f.primitive().int_coeffs()
    for root in result.certified:
        value = sum(c * root.lift() ** i for i, c in enumerate(coeffs))
        assert vp_or_none(value, p) is None or valuation(value, p) >= absprec


def test_split_cubic_roots():
    f = qpoly(-1, 1) * qpoly(-2, 1) * qpoly(5, 1)
    result = padic_roots(f, 7, absprec=9)
    assert result.complete
    assert sorted(r.lift() % 7**9 for r in result.certified) == sorted(
        x % 7**9 for x in (1, 2, -5)
    )
    check_certified(f, 7, 9)


def test_repeated_root_reported_once():
    f = qpoly(-3, 1) * qpoly(-3, 1) * qpoly(1, 1)
    result = padic_roots(f, 5, absprec=8)
    assert result.complete
    assert sorted(r.lift() % 5**8 for r in result.certified) == sorted(
        x % 5**8 for x in (3, -1)
    )


def test_minus_one_square_depends_on_p():
    f = qpoly(1, 0, 1)
    assert padic_roots(f, 5, absprec=10).certified  # -1 is a square in Z_5
    res7 = padic_roots(f, 7, absprec=10)
    assert res7.complete and not res7.certified


def test_root_with_positive_valuation():
    f = qpoly(0, -5, 1) * qpoly(-1, 1)  # roots 0, 5, 1... (x^2-5x)(x-1)
    result = padic_roots(f, 5, absprec=10)
    assert result.complete
    assert sorted(r.lift() for r in result.certified) == [0, 1, 5]


def test_no_rational_but_padic_roots():
    # x^2 - 2 over Z_7: two roots, congruent to 3 and 4 mod 7
    result = padic_roots(qpoly(-2, 0, 1), 7, absprec=15)
    assert result.complete
    assert sorted(r.lift() % 7 for r in result.certified) == [3, 4]


def test_precision_doubling_stability():
    rng = random.Random(2024)
    for _ in range(25):
        deg = rng.randint(1, 6)
        f = QPoly([Fraction(rng.randint(-30, 30)) for _ in range(deg)] + [Fraction(rng.randint(1, 30))])
        for p in (3, 5):
            low = padic_roots(f, p, absprec=8)
            high = padic_roots(f, p, absprec=16)
            assert low.complete == high.complete
            if not low.complete:
                continue
            assert len(low.certified) == len(high.certified)
            low_set = sorted(r.lift() % p**8 for r in low.certified)
            high_set = sorted(r.lift() % p**8 for r in high.certified)
            assert low_set == high_set


def exhaustive_residues(coeffs: list[int], p: int, k: int) -> set[int]:
    """All r mod p^k with f(r) = 0 mod p^k, by brute scan of every residue."""
    mod = p**k
    out = set()
    for r in range(mod):
        if sum(c * pow(r, i, mod) for i, c in enumerate(coeffs)) % mod == 0:
            out.add(r)
    return out


def test_matches_exhaustive_mod_p6_enumeration():
    # two-sided comparison on 100 random polynomials of degree <= 6:
    #   every certified root lands in the mod-p^6 scan set, and every scan
    #   residue with unit derivative is hit by exactly one certified root
    p, k = 3, 6
    mod = p**k
    rng = random.Random(777)
    complete_runs = 0
    for trial in range(100):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-40, 40) for _ in range(deg)] + [rng.randint(1, 40)]
        f = QPoly([Fraction(c) for c in coeffs])
        scan = exhaustive_residues(coeffs, p, k)
        result = padic_roots(f, p, absprec=k + 4)
        certified_mod = {r.lift() % mod for r in result.certified}
        assert certified_mod <= scan, (trial, coeffs)
        assert len(certified_mod) == len(result.certified)
        if not result.complete:
            continue
        complete_runs += 1
        dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
        for r in scan:
            dval = sum(c * pow(r, i, p) for i, c in enumerate(dcoeffs)) % p
            if dval != 0:
                # unit derivative: Hensel promises a unique Z_p-root = r mod p^6
                assert r in certified_mod, (trial, coeffs, r)
    assert complete_runs >= 95


def test_smaller_batch_at_p5():
    p, k = 5, 6
    mod = p**k
    rng = random.Random(31)
    for _ in range(12):
        deg = rng.randint(1, 5)
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 20)]
        f = QPoly([Fraction(c) for c in coeffs])
        scan = exhaustive_residues(coeffs, p, k)
        result = padic_roots(f, p, absprec=k)
        assert {r.lift() % mod for r in result.certified} <= scan


def test_rejects_zero_polynomial_and_bad_precision():
    with pytest.raises(ValueError):
        padic_roots(QPoly.zero(), 5)
    with pytest.raises(ValueError):
        padic_roots(qpoly(1, 1), 5, absprec=0)


def test_default_precision_roundtrip():
    result = padic_roots(qpoly(-1, 0, 0, 1), 7)  # cube roots of 1 in Z_7
    assert result.complete
    assert len(result.certified) == 3  # 7 = 1 mod 3, so all three are 7-adic
    for r in result.certified:
        assert r.absprec == DEFAULT_PRECISION
        assert pow(r.lift(), 3, 7**DEFAULT_PRECISION) == 1


# --- the root search against its rational-Euclid form ---


def padic_roots_by_squarefree_part(f: QPoly, p: int, absprec: int = DEFAULT_PRECISION,
                                   depth_budget: int = DEPTH_BUDGET) -> PadicRoots:
    """padic_roots as it ran before the good-prime proof: the search
    always runs on the squarefree part over Q, shifting with QPoly."""
    work = f.squarefree_part().primitive()
    if work.degree == 0:
        return PadicRoots((), ())
    certified = []
    inconclusive = []

    def search(cs, depth, base, scale):
        for rbar in range(p):
            fr = _eval_int(cs, rbar)
            if fr % p != 0:
                continue
            dfr = _eval_int(_deriv(cs), rbar)
            target = absprec - scale
            if target <= 0:
                inconclusive.append(
                    f"residue {base + rbar * p**scale} mod {p}^{scale + 1}: precision exhausted")
                continue
            if dfr % p != 0:
                if fr == 0:
                    root = PadicNumber.from_int(rbar, p, target)
                else:
                    root = hensel_lift(QPoly(cs), rbar, p, target)
                certified.append(
                    PadicNumber.from_int(base + root.lift() * p**scale, p, absprec))
                continue
            if depth >= depth_budget:
                inconclusive.append(
                    f"residue {base + rbar * p**scale} mod {p}^{scale + 1}: depth budget exhausted")
                continue
            shifted = compose_linear(QPoly(cs), p, rbar)
            e = min(valuation(int(c), p) for c in shifted.coeffs if c != 0)
            search([int(c) // p**e for c in shifted.coeffs], depth + 1,
                   base + rbar * p**scale, scale + 1)

    search(work.int_coeffs(), 0, 0, 0)
    certified.sort(key=lambda r: r.lift())
    return PadicRoots(tuple(certified), tuple(inconclusive))


# the curves of the isogeny-lines benchmark workload at their p
ISOGENY_LINES = (
    ((0, -1, 1, -10, -20), 5), ((0, -1, 1, -7820, -263580), 5),
    ((0, -1, 1, 0, 0), 5), ((1, 0, 1, 4, -6), 3), ((0, 1, 0, 4, 4), 3),
    ((1, -1, 1, -3, 3), 7), ((1, 1, 1, 0, 1), 5),
)


@st.composite
def root_search_inputs(draw):
    """(f, p): psi_p of an isogeny-lines curve, or a product of
    (x - r)^k with k <= 3, (p x - r), irreducible quadratics and pairs
    of roots p-adically too close to separate at every precision."""
    if draw(st.integers(0, 3)) == 0:
        a, p = draw(st.sampled_from(ISOGENY_LINES))
        return WeierstrassModel(*a).division_polynomial(p), p
    p = draw(st.sampled_from((3, 5, 7)))
    f = qpoly(draw(st.sampled_from((1, -2, 3))))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("power", "scaled", "quadratic", "close")))
        r = draw(st.integers(-3 * p**2, 3 * p**2))
        if kind == "power":
            f = f * qpoly(-r, 1) ** draw(st.integers(1, 3))
        elif kind == "scaled":
            f = f * qpoly(-r, p)
        elif kind == "close":
            f = f * qpoly(-r, 1) * qpoly(-r - p ** draw(st.integers(2, 18)), 1)
        else:
            c = draw(st.integers(-30, 30))
            assume(r * r - 4 * c < 0 or math.isqrt(r * r - 4 * c) ** 2 != r * r - 4 * c)
            f = f * qpoly(c, r, 1)
    return f, p


@settings(max_examples=60, deadline=None)
@given(root_search_inputs())
def test_root_search_matches_the_squarefree_part_search(case):
    f, p = case
    for absprec in (6, 20):
        fast = padic_roots(f, p, absprec)
        slow = padic_roots_by_squarefree_part(f, p, absprec)
        assert fast.certified == slow.certified
        assert fast.inconclusive == slow.inconclusive


@st.composite
def integer_polynomials(draw):
    """(f, p): a random integer polynomial, or one from root_search_inputs."""
    if draw(st.booleans()):
        return draw(root_search_inputs())
    coeffs = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=7))
    return qpoly(*coeffs, draw(st.integers(1, 30))), draw(st.sampled_from((3, 5, 7)))


@settings(max_examples=60, deadline=None)
@given(integer_polynomials(), st.integers(DEPTH_BUDGET + 1, 64),
       st.integers(DEPTH_BUDGET + 1, 64))
@example((qpoly(-1, 1) * qpoly(-1 - 3**20, 1), 3), DEPTH_BUDGET + 1, 64)  # inconclusive
def test_search_above_the_depth_budget_does_not_depend_on_precision(case, a, b):
    # delta_v runs its one search at DEFAULT_PRECISION > DEPTH_BUDGET on this
    f, p = case
    at_a, at_b = padic_roots(f, p, a), padic_roots(f, p, b)
    assert at_a.complete == at_b.complete
    assert at_a.inconclusive == at_b.inconclusive
    m = p ** min(a, b)
    assert (sorted(r.lift() % m for r in at_a.certified)
            == sorted(r.lift() % m for r in at_b.certified))


def test_squarefree_psi_skips_the_rational_euclid(monkeypatch):
    def euclid(self):
        raise AssertionError("the squarefree part over Q was computed")

    psis = [(WeierstrassModel(*a).division_polynomial(p), p) for a, p in ISOGENY_LINES]
    expected = [padic_roots(psi, p) for psi, p in psis]
    monkeypatch.setattr(QPoly, "squarefree_part", euclid)
    assert [padic_roots(psi, p) for psi, p in psis] == expected
    # a repeated root leaves no good prime, so the Euclid is the fallback
    with pytest.raises(AssertionError, match="squarefree part"):
        padic_roots(qpoly(-3, 1) ** 2 * qpoly(1, 1), 5)
