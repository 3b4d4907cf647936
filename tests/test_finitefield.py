"""Finite fields: the package's F_l, and the F_{l^f} oracle it replaced.

The package keeps prime fields only. Axioms, inverses and Frobenius run
on the package at f = 1 and on the oracle in oracles.py at f > 1; the
oracle's squares and trace map are checked exhaustively; and the
package's F_l elements, its int-list polynomial helpers and
FqPoly.roots must agree with the oracle at f = 1 operation by
operation. The Frobenius step, by substitution or by powering, and the
left-to-right powering must agree with the right-to-left
square-and-multiply they replaced.
"""

import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fineselmer import finitefield
from fineselmer.finitefield import (FiniteField, FqPoly, _vec_divmod, _vec_frobenius,
                                    _vec_gcd, _vec_inverse_mod, _vec_mulmod, _vec_powmod,
                                    _vec_quo)
from fineselmer.polynomial import _derivative, _mul, _sub, _trim
import oracles

SMALL_FIELDS = [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (11, 1), (13, 2)]


def field_of(l, f):
    """The package's F_l at f = 1, the oracle's F_{l^f} above it."""
    return FiniteField(l) if f == 1 else oracles.FiniteField(l, f)


@pytest.mark.parametrize("l,f", SMALL_FIELDS)
def test_enumeration_size_and_distinctness(l, f):
    field = field_of(l, f)
    elems = list(field.elements())
    assert len(elems) == l ** f == field.order
    assert len(set(elems)) == field.order


@pytest.mark.parametrize("l,f", [(2, 2), (3, 2), (5, 1), (7, 1)])
def test_field_axioms_exhaustive(l, f):
    field = field_of(l, f)
    elems = list(field.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.islice(itertools.product(elems, repeat=3), 2000):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("l,f", SMALL_FIELDS)
def test_inverses(l, f):
    field = field_of(l, f)
    one = field.one()
    for a in field.elements():
        if a == field.zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == one


@pytest.mark.parametrize("l,f", SMALL_FIELDS)
def test_frobenius_fixes_everything_at_order(l, f):
    field = field_of(l, f)
    q = field.order
    for a in field.elements():
        assert a ** q == a


@pytest.mark.parametrize("l,f", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (13, 1)])
def test_is_square_matches_exhaustive_square_set(l, f):
    field = oracles.FiniteField(l, f)
    squares = {a * a for a in field.elements()}
    for a in field.elements():
        assert oracles.is_square(a) == (a in squares)


def test_is_square_char2_rejected():
    field = oracles.FiniteField(2, 2)
    with pytest.raises(ValueError):
        oracles.is_square(field.one())


def test_only_prime_fields():
    with pytest.raises(ValueError):
        FiniteField(5, 2)
    with pytest.raises(ValueError):
        FiniteField(9)
    # a field is a value: two handles to F_5 share their elements
    a, b = FiniteField(5, 1), FiniteField(5)
    assert a == b and hash(a) == hash(b)
    assert a.element(3) + b.element(4) == a.element(2)


def test_mixed_field_arithmetic_rejected():
    a = FiniteField(5, 1).one()
    b = FiniteField(7, 1).one()
    with pytest.raises(ValueError):
        a + b


def test_prime_field_lift_roundtrip():
    field = FiniteField(11, 1)
    for k in range(11):
        assert field.element(k).lift() == k


def test_trace_surjects_onto_prime_field():
    # char-2 point counting relies on the Artin-Schreier trace criterion
    field = oracles.FiniteField(2, 3)
    images = {a.trace() for a in field.elements()}
    assert images == {field.zero(), field.one()}
    zeros = sum(1 for a in field.elements() if a.trace() == field.zero())
    assert zeros == 4    # kernel of trace has size q/2


@pytest.mark.parametrize("l,f", [(5, 2), (7, 1), (3, 3)])
def test_fqpoly_roots_by_scan(l, f):
    # the package's FqPoly has no arithmetic; the boxed oracle builds the
    # product at every degree
    field = oracles.FiniteField(l, f)
    elems = list(field.elements())
    # (x - e0)(x - e1) has exactly those roots
    e0, e1 = elems[1], elems[-1]
    x = oracles.FqPoly.x(field)
    poly = (x - oracles.FqPoly(field, [e0])) * (x - oracles.FqPoly(field, [e1]))
    roots = [e for e in elems if poly(e) == field.zero()]
    assert set(roots) == {e0, e1}


def test_defining_polynomial_is_deterministic():
    # rebuilding the same field must give interoperable elements
    a = oracles.FiniteField(5, 2).gen()
    b = oracles.FiniteField(5, 2).gen()
    assert a == b and a + b == b + a


@given(st.sampled_from([3, 5, 7, 11]), st.integers(min_value=0, max_value=200),
       st.integers(min_value=0, max_value=200))
@settings(max_examples=60)
def test_prime_field_matches_int_arithmetic(l, x, y):
    field = FiniteField(l, 1)
    a, b = field.element(x), field.element(y)
    assert (a + b).lift() == (x + y) % l
    assert (a * b).lift() == (x * y) % l
    assert (a - b).lift() == (x - y) % l


def lifts(values):
    return [v.lift() for v in values]


def outcome(op):
    """op()'s value as lifted coefficients, or the exception type it raised."""
    try:
        value = op()
    except ZeroDivisionError as exc:
        return type(exc)
    if isinstance(value, tuple):
        return tuple(lifts(v.coeffs) for v in value)
    if hasattr(value, "coeffs"):
        return lifts(value.coeffs)
    if isinstance(value, list):
        return lifts(value)
    return value.lift()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 13, 101]),
    st.lists(st.integers(-300, 300), max_size=7),
    st.lists(st.integers(-300, 300), max_size=7),
    st.integers(-6, 30),
)
def test_prime_field_matches_oracle_at_degree_one(l, xs, ys, e):
    F, G = FiniteField(l), oracles.FiniteField(l, 1)
    for x, y in zip(xs, ys):
        a, b, c, d = F.element(x), F.element(y), G.element(x), G.element(y)
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
                   lambda u, v: u / v, lambda u, v: u + y, lambda u, v: y - u,
                   lambda u, v: x * v, lambda u, v: x / v,
                   lambda u, v: u ** e, lambda u, v: v.inverse(), lambda u, v: -u):
            assert outcome(lambda: op(a, b)) == outcome(lambda: op(c, d)), (x, y, e)
        assert (a == b) == (c == d) and (a == y) == (c == y)
    # the polynomial operations the package runs on residue lists, and the
    # roots of its FqPoly, against the boxed oracle
    fo, go = oracles.FqPoly(G, xs), oracles.FqPoly(G, ys)
    a, b = lifts(fo.coeffs), lifts(go.coeffs)

    def reduce(cs):
        return _trim([c % l for c in cs])

    if b:
        assert _vec_divmod(a, b, l) == outcome(lambda: fo.divmod(go)), (xs, ys)
    else:
        assert outcome(lambda: fo.divmod(go)) is ZeroDivisionError
    h = _vec_gcd(a, b, l)
    monic = reduce([c * pow(h[-1], -1, l) for c in h]) if h else []
    assert monic == outcome(lambda: fo.gcd(go)), (xs, ys)
    assert reduce(_mul(a, b)) == outcome(lambda: fo * go), (xs, ys)
    assert reduce(_sub(a, b)) == outcome(lambda: fo - go), (xs, ys)
    for cs, oracle in ((xs, fo), (ys, go)):
        if oracle.degree >= 0:
            assert outcome(lambda: FqPoly(F, cs).roots()) == outcome(oracle.roots), cs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 11]), st.lists(st.integers(0, 10), max_size=9),
       st.lists(st.integers(0, 10), min_size=1, max_size=5))
def test_int_list_division_matches_fqpoly(l, a, b):
    a = [c % l for c in a]
    b = [c % l for c in b]
    if not b[-1]:
        b[-1] = 1
    field = oracles.FiniteField(l)
    quo, rem = _vec_divmod(a, b, l)
    q, r = oracles.FqPoly(field, a).divmod(oracles.FqPoly(field, b))
    assert oracles.FqPoly(field, quo) == q and oracles.FqPoly(field, rem) == r
    assert not rem or rem[-1] != 0
    if rem:
        with pytest.raises(ArithmeticError):
            _vec_quo(a, b, l)
    else:
        assert _vec_quo(a, b, l) == quo


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 101]),
    st.lists(st.integers(0, 100), max_size=8),
    st.lists(st.integers(0, 100), min_size=1, max_size=6),
    st.lists(st.integers(0, 100), min_size=1, max_size=3),
    st.booleans(),
)
def test_int_list_inverse_matches_boxed_extended_euclid(l, a, m, common, shared):
    # a factor `common` of positive degree shared with mod makes a non-invertible
    common = [c % l for c in common] + [1] if shared else [1]
    a = [c % l for c in _mul(common, a)]
    mod = [c % l for c in _mul(common, m + [1])]
    field = oracles.FiniteField(l)
    try:
        boxed = lifts(oracles.fq_inverse_mod(oracles.FqPoly(field, a),
                                             oracles.FqPoly(field, mod)).coeffs)
    except ValueError:
        with pytest.raises(ValueError, match="not invertible"):
            _vec_inverse_mod(a, mod, l)
        return
    inverse = _vec_inverse_mod(a, mod, l)
    assert inverse == boxed
    assert _vec_mulmod(a, inverse, mod, l) == [1]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13, 101]), st.data())
def test_fqpoly_roots_match_oracle_on_products_of_linear_factors(l, data):
    # random coefficient lists seldom have many roots; a product of linear
    # factors, each up to a cube, makes the scan stop at its early exit
    # once it has found deg(gcd(f, x^l - x)) roots
    F, G = FiniteField(l), oracles.FiniteField(l, 1)
    unit = data.draw(st.integers(1, l - 1))
    roots = data.draw(st.lists(st.integers(0, l - 1), max_size=5, unique=True))
    cofactor = data.draw(st.lists(st.integers(0, l - 1), max_size=4))
    f = [unit]
    for r in roots:
        for _ in range(data.draw(st.integers(1, 3))):
            f = _mul(f, [-r, 1])
    f = [c % l for c in _mul(f, cofactor + [1])]
    found = lifts(FqPoly(F, f).roots())
    assert found == lifts(oracles.FqPoly(G, f).roots()), f
    assert set(roots) <= set(found) and found == sorted(found)
    # a nonzero constant has no root; the zero polynomial has every one
    assert FqPoly(F, [unit]).roots() == oracles.FqPoly(G, [unit]).roots() == []
    for zero in ([], [0, l]):
        with pytest.raises(ValueError, match="every root"):
            FqPoly(F, zero).roots()
        with pytest.raises(ValueError, match="every root"):
            oracles.FqPoly(G, zero).roots()


@st.composite
def frobenius_case(draw):
    """(l, a, mod): mod monic squarefree of degree 1 to 90 over F_l, deg a < deg mod."""
    l = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 101]))
    n = draw(st.integers(1, 90))
    mod = draw(st.lists(st.integers(0, l - 1), min_size=n, max_size=n)) + [1]
    assume(len(_vec_gcd(mod, [c % l for c in _derivative(mod)], l)) == 1)
    a = draw(st.lists(st.integers(0, l - 1), max_size=n))
    return l, a, mod


@settings(max_examples=120, deadline=None)
@given(frobenius_case())
@example((3, [0, 1], [1, 0, 0, 1, 1]))
@example((3, [2, 0, 1], [1, 0, 0, 1, 1]))
@example((13, [2, 0, 1], [1, 0, 0, 1, 1]))
@example((7, [], [0, 1]))
def test_frobenius_matches_powering(case):
    # both branches: substitution at l <= 7, powering above
    l, a, mod = case
    expected = oracles.square_and_multiply(a, l, mod, l)
    assert _vec_frobenius(a, mod, l) == _vec_powmod(a, l, mod, l) == expected, case


@pytest.mark.parametrize("l", [2, 3, 5, 7, 11, 13, 101])
def test_frobenius_powers_only_above_seven(l, monkeypatch):
    calls = []
    powmod = finitefield._vec_powmod
    monkeypatch.setattr(finitefield, "_vec_powmod",
                        lambda *args: calls.append(args) or powmod(*args))
    mod = [1, 2 % l, 0, 1, 1]
    assert _vec_frobenius([0, 1, 1], mod, l) == oracles.square_and_multiply([0, 1, 1], l, mod, l)
    assert len(calls) == (l > 7)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 13, 101]), st.integers(0, 2**70),
       st.lists(st.integers(0, 100), max_size=12),
       st.lists(st.integers(0, 100), max_size=10))
def test_powmod_matches_square_and_multiply(l, e, a, m):
    mod = [c % l for c in m] + [1]
    assert _vec_powmod(a, e, mod, l) == oracles.square_and_multiply(a, e, mod, l)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 7, 8, 13, 255, 256, (5**6 - 1) // 2, 2**40 + 3])
def test_powmod_makes_no_wasted_product(e, monkeypatch):
    # bit_length(e) - 1 squarings and popcount(e) - 1 products with a:
    # none with 1, none after the top bit
    squarings, products = [], []
    mulmod = finitefield._vec_mulmod

    def counting(a, b, mod, l):
        (squarings if a is b else products).append(1)
        return mulmod(a, b, mod, l)

    monkeypatch.setattr(finitefield, "_vec_mulmod", counting)
    mod, l = [2, 1, 0, 4, 3, 1], 5
    _vec_powmod([1, 3, 0, 2], e, mod, l)
    assert len(squarings) == e.bit_length() - 1
    assert len(products) == bin(e).count("1") - 1
