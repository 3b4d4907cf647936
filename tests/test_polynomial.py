"""Exact rational polynomials: ring laws, division, gcd, squarefree parts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fineselmer.polynomial import (QPoly, _add, _compose_linear, _derivative, _horner_mod,
                                   _mul, _sub)
from oracles import (compose_linear, divides, evaluate, fraction_content, fraction_divmod,
                     yun_squarefree)

fracs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
polys = st.lists(fracs, min_size=0, max_size=7).map(QPoly)
nonzero_polys = polys.filter(lambda f: not f.is_zero)


@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + QPoly.zero() == f
    assert f * QPoly.one() == f
    assert f - f == QPoly.zero()


@given(polys, nonzero_polys)
def test_divmod_defining_property(f, g):
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@given(polys, polys)
def test_evaluation_is_a_homomorphism(f, g):
    at = Fraction(3, 2)
    assert evaluate((f + g).coeffs, at) == evaluate(f.coeffs, at) + evaluate(g.coeffs, at)
    assert evaluate((f * g).coeffs, at) == evaluate(f.coeffs, at) * evaluate(g.coeffs, at)


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both_and_is_monic(f, g):
    d = f.gcd(g)
    assert d.leading == 1
    assert divides(d, f) and divides(d, g)


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=40)
def test_gcd_catches_common_factor(f, g, h):
    d = (f * h).gcd(g * h)
    assert divides(h.monic(), d)


@given(polys)
def test_degree_and_leading(f):
    if f.is_zero:
        assert f.degree == -1
    else:
        assert f.coeff(f.degree) == f.leading != 0
        assert f.coeff(f.degree + 1) == 0


@given(nonzero_polys)
def test_content_primitive_decomposition(f):
    c = f.content()
    prim = f.primitive()
    assert c > 0
    assert prim.is_integral and prim.leading > 0
    sign = 1 if f.leading > 0 else -1
    assert QPoly.constant(sign * c) * prim == f
    # primitive means unit content among integer coefficients
    from math import gcd
    ints = prim.int_coeffs()
    g = 0
    for v in ints:
        g = gcd(g, v)
    assert g == 1


def test_derivative_product_rule():
    f = QPoly([1, 2, 3])
    g = QPoly([0, -1, 0, 5])
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_compose_linear():
    f = QPoly([1, 0, 1])            # x^2 + 1
    g = compose_linear(f, 2, -3)    # f(2x - 3) = 4x^2 - 12x + 10
    assert g == QPoly([10, -12, 4])


def test_yun_squarefree_structure():
    # (x-1)^3 (x+2)^2 (x^2+1)
    f = (QPoly([-1, 1]) ** 3) * (QPoly([2, 1]) ** 2) * QPoly([1, 0, 1])
    parts = yun_squarefree(f)
    rebuilt = QPoly.one()
    for g, m in parts:
        rebuilt = rebuilt * g ** m
    assert rebuilt == f.monic()
    assert {(tuple(g.int_coeffs()), m) for g, m in parts if g.degree > 0} == {
        ((-1, 1), 3), ((2, 1), 2), ((1, 0, 1), 1)}


def test_squarefree_part():
    f = (QPoly([-1, 1]) ** 3) * QPoly([1, 1])
    assert f.squarefree_part() == QPoly([-1, 1]) * QPoly([1, 1])


@given(nonzero_polys)
def test_monic_normalization(f):
    m = f.monic()
    assert m.leading == 1 and m.degree == f.degree


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QPoly([1, 2]).divmod(QPoly.zero())


def test_int_coeffs_rejects_fractions():
    with pytest.raises(ValueError):
        QPoly([Fraction(1, 2)]).int_coeffs()


# --- one type: ints when integral, else Fractions ---

def assert_one_type(f: QPoly) -> None:
    types = {type(c) for c in f.coeffs}
    if all(c.denominator == 1 for c in f.coeffs):
        assert types <= {int}, f.coeffs
        assert f.is_integral
    else:
        assert types == {Fraction}, f.coeffs
        assert not f.is_integral


def trimmed(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def agrees(f: QPoly, a) -> bool:
    """f holds the values of the Fraction list a, in its one type."""
    assert_one_type(f)
    return list(f.coeffs) == trimmed(a)


int_polys = st.lists(st.integers(-30, 30), max_size=7).map(QPoly)
mixed_polys = st.one_of(int_polys, polys)


@pytest.mark.parametrize("coeffs, stored", [
    ([1, Fraction(4, 2), True], [1, 2, 1]),
    ([Fraction(1, 2), 3], [Fraction(1, 2), Fraction(3)]),
    ([Fraction(6, 3), 0, Fraction(0)], [2]),
], ids=["integral", "one fraction", "trailing zeros"])
def test_coefficients_have_one_type(coeffs, stored):
    f = QPoly(coeffs)
    assert list(f.coeffs) == stored
    assert [type(c) for c in f.coeffs] == [type(c) for c in stored]


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", None, complex(1)], ids=repr)
def test_coefficients_refuse_all_but_int_and_fraction(bad):
    with pytest.raises(TypeError, match="must be int or Fraction"):
        QPoly([1, bad])


@given(mixed_polys, mixed_polys)
def test_int_storage_matches_fraction_arithmetic(f, g):
    """+, -, *, divmod, monic, content and primitive give the values the
    same operations give on the coefficients as Fractions, stored in one type."""
    a, b = [Fraction(c) for c in f.coeffs], [Fraction(c) for c in g.coeffs]
    assert_one_type(f)
    assert_one_type(g)
    assert agrees(f + g, _add(a, b))
    assert agrees(f - g, _sub(a, b))
    assert agrees(f * g, _mul(a, b))
    assert agrees(f * Fraction(1, 3), [c / 3 for c in a])
    if b:
        q, r = f.divmod(g)
        fq, fr = fraction_divmod(a, b)
        assert agrees(q, fq) and agrees(r, fr)
        assert agrees(g.monic(), [c / b[-1] for c in b])
        content = fraction_content(b)
        assert g.content() == content
        assert type(g.content()) is (int if g.is_integral else Fraction)
        unit = content if b[-1] > 0 else -content
        assert agrees(g.primitive(), [c / unit for c in b])
        assert g.primitive().is_integral
    else:
        assert g.content() == 0 and g.primitive() == g


# --- the coefficient-list kernels ---

int_lists = st.lists(st.integers(-60, 60), max_size=8)
nonzero_int_lists = st.lists(st.integers(-60, 60), min_size=1, max_size=8).filter(
    lambda a: a[-1] != 0)


def value(a, x):
    """a(x) straight from the definition, with no Horner."""
    return sum(c * x**i for i, c in enumerate(a))


@given(int_lists, int_lists)
def test_list_product_sum_and_difference(a, b):
    # deg(a b) < len(a) + len(b), so agreement at that many points is
    # equality of polynomials
    prod, total, diff = _mul(a, b), _add(a, b), _sub(a, b)
    assert len(prod) == (len(a) + len(b) - 1 if a and b else 0)
    for x in range(-1, len(a) + len(b)):
        assert value(prod, x) == value(a, x) * value(b, x)
        assert value(total, x) == value(a, x) + value(b, x)
        assert value(diff, x) == value(a, x) - value(b, x)
    assert not total or total[-1] != 0
    assert not diff or diff[-1] != 0
    assert QPoly(prod) == QPoly(a) * QPoly(b)
    assert QPoly(total) == QPoly(a) + QPoly(b)
    assert QPoly(diff) == QPoly(a) - QPoly(b)


@given(int_lists, st.integers(-9, 9), st.integers(1, 10**6))
def test_list_horner(a, x, m):
    assert evaluate(a, x) == value(a, x)
    assert _horner_mod(a, x, m) == value(a, x) % m


@given(nonzero_int_lists, nonzero_int_lists, st.integers(-9, 9), st.integers(1, 5))
def test_list_derivative(a, b, x, h):
    # Leibniz, and f(x + h) - f(x) = h f'(x) mod h^2
    lhs = _derivative(_mul(a, b))
    rhs = _add(_mul(_derivative(a), b), _mul(a, _derivative(b)))
    assert QPoly(lhs) == QPoly(rhs)
    assert (value(a, x + h) - value(a, x) - h * value(_derivative(a), x)) % (h * h) == 0
    assert QPoly(_derivative(a)) == QPoly(a).derivative()


@given(nonzero_int_lists, st.integers(-7, 7).filter(bool), st.integers(-7, 7))
def test_list_linear_shift(a, u, v):
    shifted = _compose_linear(a, u, v)
    assert shifted == compose_linear(QPoly(a), u, v).int_coeffs()
    for x in range(-2, 3):
        assert value(shifted, x) == value(a, u * x + v)
