"""Polynomial factorization over finite fields and over Q.

The oracle strategy is reconstruction: build polynomials as explicit products
of known irreducibles, factor them, and demand the exact multiset back.
Irreducibility of every emitted factor is cross-checked with the independent
distinct-degree test. The F_q side runs the boxed oracles of oracles.py, and
the package's int-list splits mod l are checked against them.
"""

import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fineselmer import factorization
from fineselmer.factorization import (
    DEFAULT_SEED,
    GOOD_PRIME_BOUND,
    SQUAREFREE_TRIES,
    NoGoodPrime,
    factor_int_poly,
    good_reduction,
)
from fineselmer.modular import is_prime, primes_below
from fineselmer.polynomial import QPoly, _derivative, _mul, _symmetric
import oracles
from oracles import (DistinctDegreeBoxed, admits_divisor_of_degree, compose_linear,
                     equal_degree_boxed, factor_fq, is_irreducible_fq, yun_squarefree)
from test_elliptic import isogeny_13_curve


def qpoly(*coeffs: int) -> QPoly:
    # ascending coefficient order
    return QPoly([Fraction(c) for c in coeffs])


def fq_poly(field: oracles.FiniteField, *coeffs: int) -> oracles.FqPoly:
    return oracles.FqPoly(field, coeffs)


def squarefree(f: QPoly) -> bool:
    return f.gcd(f.derivative()).degree == 0


# --- finite field side ---


def test_factor_fq_reconstructs_known_product():
    F = oracles.FiniteField(7, 1)
    # (x + 1)^2 * (x^2 + 1) * 3; x^2 + 1 has no root mod 7
    f = fq_poly(F, 1, 1) * fq_poly(F, 1, 1) * fq_poly(F, 1, 0, 1) * fq_poly(F, 3)
    unit, factors = factor_fq(f)
    assert unit == F.element(3)
    assert [(list(g.coeffs), m) for g, m in factors] == [
        ([F.element(1), F.element(1)], 2),
        ([F.element(1), F.element(0), F.element(1)], 1),
    ]


def test_factor_fq_splits_frobenius_orbit():
    # x^4 + 1 is irreducible over Q yet splits into quadratics mod every prime
    F = oracles.FiniteField(3, 1)
    unit, factors = factor_fq(fq_poly(F, 1, 0, 0, 0, 1))
    assert unit == F.one()
    assert sorted(g.degree for g, _ in factors) == [2, 2]
    for g, mult in factors:
        assert mult == 1
        assert is_irreducible_fq(g)


def test_factor_fq_extension_field():
    F = oracles.FiniteField(5, 2)
    gen = F.gen()
    # (x - gen)(x - gen^5) is the minimal polynomial of gen over F_5,
    # but viewed over F_25 it must split back into the two linear factors
    lin1 = oracles.FqPoly(F, [-gen, F.one()])
    lin2 = oracles.FqPoly(F, [-(gen ** 5), F.one()])
    unit, factors = factor_fq(lin1 * lin2)
    assert unit == F.one()
    assert sorted(g.degree for g, _ in factors) == [1, 1]
    roots = sorted((-g.coeffs[0] for g, _ in factors), key=lambda e: e.coords)
    assert sorted([gen, gen ** 5], key=lambda e: e.coords) == roots


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)]),
    st.lists(st.integers(0, 200), min_size=1, max_size=4),
    st.data(),
)
def test_factor_fq_random_roundtrip(pq, seeds, data):
    p, k = pq
    F = oracles.FiniteField(p, k)
    product = oracles.FqPoly(F, [data.draw(st.integers(1, p - 1))])
    for s in seeds:
        deg = 1 + s % 3
        coeffs = [F.element((s * 31 + j * 7 + 1) % p ** k) for j in range(deg)]
        product = product * oracles.FqPoly(F, coeffs + [F.one()])
    unit, factors = factor_fq(product)
    rebuilt = oracles.FqPoly(F, [unit])
    for g, mult in factors:
        assert is_irreducible_fq(g)
        assert g.leading == F.one()
        for _ in range(mult):
            rebuilt = rebuilt * g
    assert list(rebuilt.coeffs) == list(product.coeffs)


def test_factor_fq_constant_and_zero():
    F = oracles.FiniteField(5, 1)
    unit, factors = factor_fq(fq_poly(F, 4))
    assert unit == F.element(4) and factors == []
    with pytest.raises(ValueError):
        factor_fq(oracles.FqPoly(F, []))


# --- the int-list splits against the FqPoly splits they replace ---


def coefficient_key(h) -> list[int]:
    """The coefficients of a package or oracle polynomial over F_l, as ints."""
    return [c.lift() for c in h.coeffs]


def next_irreducible(F: oracles.FiniteField, d: int, code: int) -> oracles.FqPoly:
    """The first monic irreducible of degree d over F_l whose code
    sum(c_i l^i) over its lower coefficients is at least `code`, cyclically."""
    l = F.char
    while True:
        h = oracles.FqPoly(F, [code // l**i % l for i in range(d)] + [1])
        if is_irreducible_fq(h):
            return h
        code = (code + 1) % l**d


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13, 101]),
    st.integers(1, 4),
    st.lists(st.integers(0, 101**4), min_size=1, max_size=4),
    st.integers(0, 2**32),
)
def test_int_list_split_matches_boxed_split(l, d, codes, seed):
    F = oracles.FiniteField(l)
    irreducibles = {next_irreducible(F, d, code % l**d) for code in codes}
    f = oracles.FqPoly(F, (1,))
    for h in irreducibles:
        f = f * h
    expected = sorted(irreducibles, key=coefficient_key)
    split = factorization._equal_degree_ints(coefficient_key(f), d, l, random.Random(seed))
    assert sorted(split) == [coefficient_key(h) for h in expected]
    assert equal_degree_boxed(f, d, random.Random(seed)) == expected


@st.composite
def squarefree_monic(draw):
    """(l, a random squarefree monic polynomial of degree 1 to 30 over F_l)."""
    l = draw(st.sampled_from([3, 5, 7, 11, 13, 101]))
    lower = draw(st.lists(st.integers(0, l - 1), min_size=1, max_size=30))
    f = oracles.FqPoly(oracles.FiniteField(l), lower + [1])
    assume(f.gcd(f.derivative()).degree == 0)
    return l, f


@settings(max_examples=80, deadline=None)
@given(squarefree_monic(), st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
def test_int_distinct_degree_matches_boxed_split(lf, k1, k2, d):
    l, f = lf
    coeffs = coefficient_key(f)

    def int_parts(split, k):
        return [(list(part), j) for part, j in split.through(k)]

    for k in (k1, k2):
        boxed = [(coefficient_key(part), j) for part, j in DistinctDegreeBoxed(f).through(k)]
        assert int_parts(factorization.GoodReduction(l, coeffs), k) == boxed
    # a split resumed from the smaller bound ends where a fresh one does
    lo, hi = sorted((k1, k2))
    resumed = factorization.GoodReduction(l, coeffs)
    resumed.through(lo)
    assert int_parts(resumed, hi) == int_parts(factorization.GoodReduction(l, coeffs), hi)
    # the degree question, asked of a fresh reduction and after a split to k1
    reduction = factorization.GoodReduction(l, coeffs)
    expected = admits_divisor_of_degree(DistinctDegreeBoxed(f), d)
    assert reduction.admits_divisor_of_degree(d) == expected
    reduction.through(k1)
    assert reduction.admits_divisor_of_degree(d) == expected



@pytest.mark.parametrize("label,curve,p", [
    ("37a1", (0, 0, 1, -1, 0), 11),
    ("20a1", (0, 1, 0, 4, 4), 11),
    ("14a1", (1, 0, 1, 4, -6), 11),
    ("37a1", (0, 0, 1, -1, 0), 13),
    ("49a1", (1, -1, 0, -2, -1), 13),
])
def test_psi_split_matches_the_powering_step(label, curve, p, monkeypatch):
    # psi_p's good prime is 3 for all five; the next good primes run the
    # split at l = 5 and 7 by substitution and at l = 11 and 13 by powering
    from fineselmer.elliptic import WeierstrassModel

    psi = WeierstrassModel(*curve).integral_model().division_polynomial(p).int_coeffs()
    assert good_reduction(psi).l == 3
    goods = [l for l in (3, 5, 7, 11, 13)
             if psi[-1] % l and len(factorization._vec_gcd(
                 [c % l for c in psi], [c % l for c in _derivative(psi)], l)) == 1]
    assert len(goods) >= 2 and max(goods) > 7, goods

    def split(l):
        ddf = factorization.GoodReduction(l, [c % l for c in psi])
        return [(list(part), j) for part, j in ddf.through((p - 1) // 2)], ddf.rest

    for l in goods:
        fast = split(l)
        with monkeypatch.context() as patch:
            patch.setattr(factorization, "_vec_frobenius",
                          lambda a, mod, l: oracles.square_and_multiply(a, l, mod, l))
            assert split(l) == fast, (label, p, l)

def test_good_reduction_of_psi7_on_27a1_matches_factor_fq():
    from fineselmer.elliptic import WeierstrassModel

    psi = WeierstrassModel(0, 0, 1, 0, -7).integral_model().division_polynomial(7)
    reduction = good_reduction(psi.int_coeffs())
    assert reduction.l == 5
    irreducibles = reduction.residues(psi.degree)
    assert [len(h) - 1 for h in irreducibles] == [3, 3, 6, 6, 6]
    residue = oracles.FqPoly(oracles.FiniteField(5), [c % 5 for c in psi.int_coeffs()])
    _, factors = factor_fq(residue)
    keys = irreducibles
    assert [(key, 1) for key in keys] == [(coefficient_key(h), m) for h, m in factors]
    rng = random.Random(DEFAULT_SEED)
    boxed = [coefficient_key(h)
             for part, k in DistinctDegreeBoxed(residue.monic()).through(residue.degree)
             for h in equal_degree_boxed(part, k, rng)]
    assert keys == sorted(boxed, key=lambda key: (len(key), key))


def test_is_irreducible_fq_matches_root_scan():
    # exhaustive over small degrees: a quadratic or cubic over F_p is
    # irreducible exactly when it has no root
    F = oracles.FiniteField(3, 1)
    xs = [F.element(i) for i in range(3)]
    for a in range(3):
        for b in range(3):
            f = fq_poly(F, b, a, 1)
            assert is_irreducible_fq(f) == all(f(x) != F.zero() for x in xs)


def test_is_irreducible_fq_quartics():
    F = oracles.FiniteField(2, 1)
    # x^4 + x + 1 is primitive over F_2; x^4 + x^2 + 1 = (x^2 + x + 1)^2
    assert is_irreducible_fq(fq_poly(F, 1, 1, 0, 0, 1))
    assert not is_irreducible_fq(fq_poly(F, 1, 0, 1, 0, 1))


# --- rational side ---


def test_factor_int_poly_known_product():
    f = qpoly(-2, 0, 1) * qpoly(-3, 0, 1) * qpoly(1, 1) * qpoly(6)
    content, factors = factor_int_poly(f)
    rebuilt = QPoly.constant(content)
    for g, mult in factors:
        rebuilt = rebuilt * g ** mult
    assert rebuilt == f
    assert content == 6
    assert sorted((g.degree, m) for g, m in factors) == [(1, 1), (2, 1), (2, 1)]
    assert any(list(g.int_coeffs()) == [-2, 0, 1] for g, _ in factors)
    assert any(list(g.int_coeffs()) == [-3, 0, 1] for g, _ in factors)
    # a repeated factor leaves no good prime
    with pytest.raises(NoGoodPrime):
        factor_int_poly(f * qpoly(1, 1))


def test_factor_int_poly_swinnerton_dyer_quartic():
    # minimal polynomial of sqrt(2) + sqrt(3): irreducible over Q although
    # it factors modulo every single prime, so any one-prime shortcut lies
    content, factors = factor_int_poly(qpoly(1, 0, -10, 0, 1))
    assert content == 1
    assert len(factors) == 1
    assert factors[0][1] == 1
    assert list(factors[0][0].int_coeffs()) == [1, 0, -10, 0, 1]


def test_factor_int_poly_cyclotomic_irreducible():
    for p in (3, 5, 7, 11, 13):
        phi = qpoly(*([1] * p))
        content, factors = factor_int_poly(phi)
        assert content == 1
        assert len(factors) == 1 and factors[0][1] == 1
        assert factors[0][0] == phi


def test_factor_int_poly_rational_content():
    f = qpoly(-1, 0, 1) * QPoly.constant(Fraction(3, 4))
    content, factors = factor_int_poly(f)
    assert content == Fraction(3, 4)
    assert sorted(list(g.int_coeffs()) for g, _ in factors) == [[-1, 1], [1, 1]]


def test_factor_int_poly_negative_leading():
    content, factors = factor_int_poly(qpoly(4, 0, -1))
    assert content == -1
    assert sorted(list(g.int_coeffs()) for g, _ in factors) == [[-2, 1], [2, 1]]
    rebuilt = QPoly.constant(content)
    for g, m in factors:
        rebuilt = rebuilt * g ** m
    assert rebuilt == qpoly(4, 0, -1)


def test_factor_int_poly_power_of_x():
    content, factors = factor_int_poly(qpoly(0, 5))
    assert content == 5
    assert factors == [(QPoly.x(), 1)]
    with pytest.raises(NoGoodPrime):
        factor_int_poly(qpoly(0, 0, 0, 5))


def test_factor_int_poly_division_polynomial_shape():
    # 5-division polynomial of y^2 + y = x^3 - x^2 - 10x - 20: the two
    # rational roots 5 and 16 cut out the kernel of the rational 5-isogeny
    from fineselmer.elliptic import WeierstrassModel

    model = WeierstrassModel(0, -1, 1, -10, -20)
    psi5 = model.division_polynomial(5)
    content, factors = factor_int_poly(psi5)
    degrees = sorted(g.degree for g, _ in factors)
    assert degrees == [1, 1, 2, 4, 4]
    linear_roots = sorted(
        -Fraction(g.coeff(0), g.coeff(1)) for g, _ in factors if g.degree == 1
    )
    assert linear_roots == [5, 16]
    assert all(m == 1 for _, m in factors)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [
                [1, 1],
                [-2, 1],
                [3, 2],
                [1, 0, 1],
                [-2, 0, 1],
                [1, 1, 1],
                [2, -1, 0, 1],
            ]
        ),
        min_size=1,
        max_size=4,
        unique_by=tuple,
    ),
    st.integers(-6, 6).filter(lambda n: n != 0),
)
def test_factor_int_poly_random_roundtrip(parts, scale):
    # distinct irreducible parts: the product is squarefree
    f = QPoly.constant(Fraction(scale))
    for part in parts:
        f = f * qpoly(*part)
    content, factors = factor_int_poly(f)
    rebuilt = QPoly.constant(content)
    for g, mult in factors:
        assert g.is_integral
        assert g.leading > 0
        assert g.content() == 1
        assert mult == 1
        rebuilt = rebuilt * g
    assert rebuilt == f


def test_factor_int_poly_rejects_zero():
    with pytest.raises(ValueError):
        factor_int_poly(QPoly.zero())


# --- leading-coefficient recombination against the monicised path it replaces ---


def factor_squarefree_monicised(g: QPoly, l: int, residues: list[list[int]]) -> list[QPoly]:
    """_factor_squarefree as it ran before leading-coefficient recombination.

    A non-monic g is made monic by G(x) = lead^(n-1) g(x/lead), with the
    residues scaled the same way; the lifted factors of G are recombined
    by forming every subset's product and trial-dividing it over Q, and
    each factor found is mapped back by x -> lead x.
    """
    if g.degree <= 0:
        return []
    if g.degree == 1:
        return [g.primitive()]
    lead = int(g.leading)
    if abs(lead) != 1:
        n = g.degree
        G = QPoly([c * Fraction(lead) ** (n - 1 - i) for i, c in enumerate(g.coeffs)])
        assert G.is_integral and G.leading == 1
        scaled = [[c * pow(lead, len(h) - 1 - j, l) % l for j, c in enumerate(h)]
                  for h in residues]
        return [compose_linear(H, Fraction(lead), 0).primitive()
                for H in factor_squarefree_monicised(G, l, scaled)]
    if lead == -1:
        g = -g
    if len(residues) == 1:
        return [g]
    bound = 2 * factorization._landau_mignotte(g.int_coeffs(), g.degree) + 1
    modulus, lifted = oracles.hensel_lift_linear(g.int_coeffs(), l, residues, bound)
    remaining = list(range(len(lifted)))
    current = g
    out = []
    size = 1
    while 2 * size <= len(remaining):
        found = try_subsets_monicised(current, lifted, remaining, size, modulus)
        if found is None:
            size += 1
            continue
        subset, factor = found
        out.append(factor)
        current = current // factor
        remaining = [i for i in remaining if i not in subset]
    if current.degree > 0:
        out.append(current.primitive())
    return out


def try_subsets_monicised(current, lifted, remaining, size, modulus):
    for subset in combinations(remaining, size):
        prod = [1]
        for i in subset:
            prod = [c % modulus for c in _mul(prod, lifted[i])]
        candidate = QPoly([_symmetric(c, modulus) for c in prod])
        if oracles.divides(candidate, current):
            return set(subset), candidate.primitive()
    return None


def factor_monicised(f: QPoly):
    """factor_int_poly with the monicised recombination in its place."""
    def uncapped(g, l, residues, max_degree):
        assert max_degree >= len(g) - 1
        return [h.int_coeffs() for h in factor_squarefree_monicised(QPoly(g), l, residues)]

    with mock.patch.object(factorization, "_factor_squarefree", uncapped):
        return factor_int_poly(f)


# composite and negative leading coefficients, constant terms with many
# divisors, and (with share_constant) factors with one constant term
LEADS = [1, -1, 2, -2, 3, 4, -6, 12, 30]
CONSTANTS = [1, -1, 2, 6, -12, 24, 36, -60, 120]


@st.composite
def integer_factor_lists(draw, max_parts=3):
    share_constant = draw(st.booleans())
    shared = draw(st.sampled_from(CONSTANTS))
    parts = []
    for _ in range(draw(st.integers(1, max_parts))):
        middle = draw(st.lists(st.integers(-9, 9), max_size=2))
        constant = shared if share_constant else draw(st.sampled_from(CONSTANTS))
        parts.append([constant] + middle + [draw(st.sampled_from(LEADS))])
    return parts


def product(parts) -> QPoly:
    f = QPoly.one()
    for coeffs in parts:
        f = f * qpoly(*coeffs)
    return f


@settings(max_examples=60, deadline=None)
@given(integer_factor_lists(max_parts=4), st.integers(-12, 12).filter(lambda n: n != 0))
def test_factor_int_poly_matches_monicised_recombination(parts, scale):
    f = QPoly.constant(scale) * product(parts)
    if squarefree(f):
        assert factor_int_poly(f) == factor_monicised(f)
    else:
        with pytest.raises(NoGoodPrime):
            factor_int_poly(f)


def test_psi_factors_match_monicised_recombination():
    # 20a1 at 3 (non-monic psi_3, one 3-isogeny), 11a1 at 5 (two rational
    # roots) and 14a1 at 5 (irreducible psi_5)
    from fineselmer.elliptic import WeierstrassModel

    for curve, p in (((0, 1, 0, 4, 4), 3), ((0, -1, 1, -10, -20), 5), ((1, 0, 1, 4, -6), 5)):
        psi = WeierstrassModel(*curve).integral_model().division_polynomial(p)
        assert factor_int_poly(psi) == factor_monicised(psi)


# --- the constant-term test that guards every product in the recombination ---


def lift_arguments(g: QPoly, cap: int | None = None):
    """(coefficients, l, residues, bound) as _factor_squarefree passes them
    to the Hensel lift under the degree cap (none when None), or None when
    no good prime is found within SQUAREFREE_TRIES."""
    reduction = good_reduction(g.int_coeffs(), SQUAREFREE_TRIES)
    if reduction is None:
        return None
    cap = g.degree if cap is None else min(cap, g.degree)
    coeffs = g.int_coeffs()
    bound = 2 * abs(coeffs[-1]) * factorization._landau_mignotte(coeffs, cap) + 1
    return coeffs, reduction.l, reduction.residues(cap), bound


def lifted_factors(g: QPoly):
    """(l^k, lifted factors of lc^(-1) g) as _factor_squarefree lifts them,
    or None when no good prime is found within SQUAREFREE_TRIES."""
    args = lift_arguments(g)
    return None if args is None else factorization._hensel_lift_factors(*args)


@settings(max_examples=60, deadline=None)
@given(integer_factor_lists())
def test_constant_term_test_never_rejects_a_true_factor(parts):
    g = product(parts).primitive()
    lift = lifted_factors(g)
    assume(lift is not None and len(lift[1]) > 1)
    modulus, lifted = lift
    current = g.int_coeffs()
    for size in range(1, len(lifted)):
        for subset in combinations(range(len(lifted)), size):
            prod = [current[-1]]
            for i in subset:
                prod = [c % modulus for c in _mul(prod, lifted[i])]
            candidate = QPoly([_symmetric(c, modulus) for c in prod])
            if oracles.divides(candidate, g):
                assert factorization._passes_constant_test(
                    current, [lifted[i][0] for i in subset], modulus), subset


def test_constant_term_test_settles_psi11_without_a_product(monkeypatch):
    # psi_11 of 43a1 is irreducible and has 12 factors mod 3: every one of
    # the 2 509 subsets tried fails the constant-term test, so no product
    # is formed and nothing is trial-divided
    from fineselmer.elliptic import WeierstrassModel

    passed = []
    constant_test = factorization._passes_constant_test

    def spy(current, constants, modulus):
        passed.append(ok := constant_test(current, constants, modulus))
        return ok

    def no_trial_division(a, b):
        raise AssertionError("a product was formed and trial-divided")

    monkeypatch.setattr(factorization, "_passes_constant_test", spy)
    monkeypatch.setattr(factorization, "_exact_quotient", no_trial_division)
    psi = WeierstrassModel(0, 1, 1, 0, 0).integral_model().division_polynomial(11)
    _, factors = factor_int_poly(psi)
    assert [(g.degree, m) for g, m in factors] == [(60, 1)]
    assert len(passed) == 2509 and not any(passed)


# --- the small-residue lift against the lifts of every residue it replaces ---


def lifts_of_every_residue(coeffs, l, target):
    """(l^k, lifted factors) of hensel_lift_linear and of
    hensel_lift_multifactor on the whole factorization of coeffs mod l."""
    reduction = factorization.GoodReduction(l, [c % l for c in coeffs])
    every = reduction.residues(len(coeffs) - 1)
    return (oracles.hensel_lift_linear(coeffs, l, every, target),
            oracles.hensel_lift_multifactor(coeffs, l, every, target))


@settings(max_examples=60, deadline=None)
@given(integer_factor_lists(max_parts=4), st.integers(1, 6), st.integers(0, 300))
# (2x + 1)(x - 1)(x + 3): l = 7 and lc = 2, not +-1 mod 7, and every
# residue is linear, so each lifts by _newton_lift alone
@example([[1, 2], [-1, 1], [3, 1]], 3, 40)
# (x + 1)(x + 2)(x^2 + 1)(x^3 + x + 1) mod 7 under cap 2: residue degrees
# [1, 1, 2], as in 11a1's psi_5 mod 3, so _newton_lift and the
# quadratic steps lift side by side
@example([[1, 1], [2, 1], [1, 0, 1], [1, 1, 0, 1]], 2, 40)
def test_quadratic_lift_matches_linear_lift(parts, cap, digits):
    # monic lifts of a coprime factorization are unique: lifting only the
    # residues of degree <= cap must stop at the power of l the lifts of
    # every residue reach, with their first len(small) factors, at the
    # bound _factor_squarefree uses and at an arbitrary l-adic target
    args = lift_arguments(product(parts).primitive(), cap)
    assume(args is not None and args[2])
    coeffs, l, small, bound = args
    for target in (bound, l**digits):
        lift = factorization._hensel_lift_factors(coeffs, l, small, target)
        for modulus, lifted in lifts_of_every_residue(coeffs, l, target):
            assert lift == (modulus, lifted[:len(small)])


@pytest.mark.parametrize("curve, p", [
    pytest.param((0, -1, 1, -10, -20), 5, id="11a1-5"),
    pytest.param((0, -1, 1, -7820, -263580), 5, id="11a2-5"),
    pytest.param((1, -1, 1, -3, 3), 7, id="26b1-7"),
    pytest.param((0, 0, 1, 0, -7), 7, id="27a1-7"),
    pytest.param(isogeny_13_curve(), 13, id="13-isogeny-13"),
])
def test_quadratic_lift_matches_linear_lift_on_psi(curve, p):
    # the stable-line search's cap (p - 1) / 2, as find_stable_subgroups
    # asks for it
    from fineselmer.elliptic import WeierstrassModel

    psi = WeierstrassModel(*curve).integral_model().division_polynomial(p)
    coeffs, l, small, bound = lift_arguments(psi.primitive(), (p - 1) // 2)
    modulus, lifted = factorization._hensel_lift_factors(coeffs, l, small, bound)
    for every in lifts_of_every_residue(coeffs, l, bound):
        assert (modulus, lifted) == (every[0], every[1][:len(small)])
    assert lifted and modulus > bound >= modulus // l


# --- the exact reconstruction check at the end of factor_int_poly ---


def test_reconstruction_check_catches_a_wrong_coefficient(monkeypatch):
    factor_squarefree = factorization._factor_squarefree

    def perturbed(g, l, residues, max_degree):
        out = factor_squarefree(g, l, residues, max_degree)
        coeffs = list(out[0])
        coeffs[0] += 1
        return [coeffs] + out[1:]

    monkeypatch.setattr(factorization, "_factor_squarefree", perturbed)
    with pytest.raises(AssertionError, match="reconstruction failed"):
        factor_int_poly(product([[1, 0, 1], [-2, 0, 0, 1], [3, 2]]))


def test_reconstruction_check_catches_a_lost_factor(monkeypatch):
    factor_squarefree = factorization._factor_squarefree

    def dropped(g, l, residues, max_degree):
        return factor_squarefree(g, l, residues, max_degree)[1:]

    monkeypatch.setattr(factorization, "_factor_squarefree", dropped)
    with pytest.raises(AssertionError, match="lost degree"):
        factor_int_poly(product([[1, 0, 1], [-2, 0, 0, 1], [3, 2]]))


# --- the good-prime factorization against the Yun path it replaces ---


def factor_by_yun(f: QPoly):
    """factor_int_poly as it ran before squarefree input was its contract:
    Yun's decomposition over Q, then each part on its own."""
    content = f.content() if f.leading > 0 else -f.content()
    prim = f * Fraction(1, content)
    factors = []
    for part, mult in yun_squarefree(prim):
        if part.coeff(0) == 0:
            factors.append((QPoly.x(), mult))
            part = part // QPoly.x()
        part = part.primitive()
        if part.degree > 0:
            reduction = good_reduction(part.int_coeffs())
            factors += [(g, mult) for g in factor_squarefree_monicised(
                part, reduction.l, reduction.residues(part.degree))]
    factors.sort(key=lambda t: (t[0].degree, tuple(t[0].coeffs)))
    check = QPoly.one()
    for g, mult in factors:
        check = check * g ** mult
    return content * prim.leading / check.leading, factors


# x^2 - D is x^2 modulo every prime dividing D, so with D the product of
# the odd primes up to 23 no candidate within SQUAREFREE_TRIES is good
BAD_FIRST_PRIMES = qpoly(-3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, 0, 1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda c: c[-1] != 0),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 1),
    st.booleans(),
    st.integers(-12, 12).filter(lambda n: n != 0),
)
# a repeated factor, which the package refuses
@example([[1, 0, 1], [1, 0, 1]], 0, False, 1)
def test_factor_int_poly_matches_yun_path(parts, x_power, bad_first, scale):
    # x | f, non-monic leading coefficients and inputs whose first odd
    # primes are all bad
    f = QPoly.constant(scale) * qpoly(0, 1) ** x_power
    if bad_first:
        f = f * BAD_FIRST_PRIMES
    for coeffs in parts:
        f = f * qpoly(*coeffs)
    if squarefree(f):
        assert factor_int_poly(f) == factor_by_yun(f)
    else:
        with pytest.raises(NoGoodPrime):
            factor_int_poly(f)


def test_factor_int_poly_never_calls_qpoly_gcd(monkeypatch):
    def no_gcd(self, other):
        raise AssertionError("factor_int_poly ran a Euclid over Q")

    monkeypatch.setattr(QPoly, "gcd", no_gcd)
    f = qpoly(0, 1) * qpoly(-2, 0, 3) * qpoly(5, 1, 0, 7)
    content, factors = factor_int_poly(f)
    assert content == 1 and sorted(g.degree for g, _ in factors) == [1, 2, 3]
    # nor when the good prime lies past the first SQUAREFREE_TRIES candidates
    content, factors = factor_int_poly(BAD_FIRST_PRIMES * qpoly(1, 1))
    assert content == 1 and sorted(g.degree for g, _ in factors) == [1, 2]
    with pytest.raises(NoGoodPrime):
        factor_int_poly(qpoly(1, 0, 1) ** 2)


def test_repeated_factor_raises_no_good_prime(monkeypatch):
    reduced = []
    gcd = factorization._vec_gcd

    def counting_gcd(a, b, l):
        reduced.append(l)
        return gcd(a, b, l)

    monkeypatch.setattr(factorization, "_vec_gcd", counting_gcd)
    f = qpoly(1, 0, 1) ** 2 * qpoly(-2, 0, 0, 1)
    with pytest.raises(NoGoodPrime, match=f"below {GOOD_PRIME_BOUND}"):
        factor_int_poly(f)
    # x^2 + 1 stays a square factor mod every l: the first SQUAREFREE_TRIES
    # candidates are tried one at a time, then the sieved scan runs through
    # all 1 228 odd primes below GOOD_PRIME_BOUND and finds none good
    odd = primes_below(GOOD_PRIME_BOUND)[1:]
    assert len(odd) == 1228
    assert reduced == odd[:SQUAREFREE_TRIES] + odd


def test_good_reduction_degree_question():
    # mod 3, x^3 - 2 is (x + 1)^3; mod 5 it shares the root 3 with x^2 + 1;
    # mod 7 both stay irreducible (7 = 3 mod 4, and 2 is not a cube mod 7)
    f = qpoly(1, 0, 1) * qpoly(-2, 0, 0, 1)
    reduction = good_reduction(f.int_coeffs())
    assert reduction.l == 7
    assert [len(h) - 1 for h in reduction.residues(f.degree)] == [2, 3]
    assert [d for d in range(6) if reduction.admits_divisor_of_degree(d)] == [0, 2, 3, 5]
    # the cyclotomic polynomial Phi_7 is irreducible mod 3 (3 has order 6
    # mod 7), so no divisor of degree 1 to 5 can exist over Q
    reduction = good_reduction([1] * 7)
    assert reduction.l == 3
    assert not any(reduction.admits_divisor_of_degree(d) for d in range(1, 6))
    assert reduction.admits_divisor_of_degree(6)
    # (x - 1)(x - 2) Phi_5 mod 3 has degrees [1, 1, 4] (3 has order 4 mod
    # 5): degree 2 is reachable only through both linear factors
    reduction = good_reduction((qpoly(-1, 1) * qpoly(-2, 1) * qpoly(*([1] * 5))).int_coeffs())
    assert reduction.l == 3
    assert [d for d in range(7) if reduction.admits_divisor_of_degree(d)] == [0, 1, 2, 4, 5, 6]
    # with every odd prime up to 23 bad, the capped search gives up
    assert good_reduction(BAD_FIRST_PRIMES.int_coeffs(), SQUAREFREE_TRIES) is None
    assert good_reduction(BAD_FIRST_PRIMES.int_coeffs()).l == 29


# --- the int-list squarefree test against the boxed gcd it replaces ---


def boxed_squarefree(coeffs: list[int], l: int) -> bool:
    residue = oracles.FqPoly(oracles.FiniteField(l), [c % l for c in coeffs])
    return residue.gcd(residue.derivative()).degree == 0


def first_good_prime_boxed(coeffs: list[int], tries: int):
    """good_reduction(f, tries).l as the boxed gcd decides it, or None."""
    candidates = (l for l in range(3, 200, 2) if is_prime(l) and coeffs[-1] % l)
    for _, l in zip(range(tries), candidates):
        if boxed_squarefree(coeffs, l):
            return l
    return None


@st.composite
def hard_residues(draw):
    """(l, kind, f): an integer f whose first good-prime candidate is l.

    The leading coefficient is a multiple of every odd prime below l and
    prime to l. kind "square" has a squared factor mod l, "frobenius" has
    a derivative that vanishes mod l, "degree" has l | deg f; l times a
    lower-degree noise term leaves f mod l as built.
    """
    l = draw(st.sampled_from([3, 5, 7]))
    lead = draw(st.sampled_from([1, 2, -4])) * {3: 1, 5: 3, 7: 15}[l]
    small = st.integers(-9, 9)
    kind = draw(st.sampled_from(["square", "frobenius", "degree", "random"]))
    if kind == "square":
        r = draw(small)
        f = _mul(_mul([r, 1], [r, 1]), draw(st.lists(small, max_size=3)) + [lead])
    elif kind == "frobenius":
        f = [0] * (2 * l + 1)
        f[0], f[l], f[-1] = draw(small), draw(small), lead
    elif kind == "degree":
        f = draw(st.lists(small, min_size=l, max_size=l)) + [lead]
    else:
        f = draw(st.lists(small, min_size=1, max_size=6)) + [lead]
    noise = draw(st.lists(small, max_size=len(f) - 1))
    return l, kind, [c + l * e for c, e in zip(f, noise + [0] * len(f))]


@settings(max_examples=80, deadline=None)
@given(hard_residues(), st.integers(1, 4))
# x^3 + 1 = (x + 1)^3 mod 3, where its derivative 3x^2 vanishes; 5 is good
@example((3, "frobenius", [1, 0, 0, 1]), 2)
def test_int_squarefree_test_matches_boxed_gcd(lkf, tries):
    l, kind, f = lkf
    verdict = boxed_squarefree(f, l)
    if kind in ("square", "frobenius"):
        assert not verdict
    # l is the first candidate, so one try asks exactly the verdict at l
    assert (good_reduction(f, 1) is not None) == verdict
    found = good_reduction(f, tries)
    assert (found.l if found else None) == first_good_prime_boxed(f, tries)


def test_capped_search_tries_the_same_primes_without_the_sieve(monkeypatch):
    # 3 and 7 divide the leading coefficient; mod each of the next eight
    # odd primes 21 x^2 - c is 21 x^2, a square; mod 37 it is squarefree
    f = [-5 * 11 * 13 * 17 * 19 * 23 * 29 * 31, 0, 21]
    gcd = factorization._vec_gcd
    reduced = []

    def recording_gcd(a, b, l):
        reduced.append(l)
        return gcd(a, b, l)

    monkeypatch.setattr(factorization, "_vec_gcd", recording_gcd)
    assert good_reduction(f).l == 37
    uncapped, reduced[:] = reduced[:], []

    def no_sieve(bound):
        raise AssertionError("a capped search sieved the whole range")

    monkeypatch.setattr(factorization, "primes_below", no_sieve)
    assert good_reduction(f, SQUAREFREE_TRIES) is None
    assert reduced == uncapped[:SQUAREFREE_TRIES] == [5, 11, 13, 17, 19, 23, 29, 31]
    assert good_reduction(f, SQUAREFREE_TRIES + 1).l == 37


# --- the degree cap: only the factors of degree <= k are lifted and recombined ---


SWINNERTON_DYER = qpoly(1, 0, -10, 0, 1)


def assert_caps_match_full(f: QPoly, caps) -> None:
    """With each cap k, factor_int_poly(f) keeps the content and the factors
    of degree <= k of the full factorization, and what it leaves out is a
    primitive integer polynomial."""
    content, factors = factor_int_poly(f)
    for k in caps:
        capped = factor_int_poly(f, max_degree=k)
        assert capped == (content, [(g, m) for g, m in factors if g.degree <= k]), k
        rest = f * Fraction(1, content)
        for g, _ in capped[1]:
            rest = rest // g
        assert rest.is_integral and rest.content() == 1 and rest.leading > 0


@st.composite
def capped_inputs(draw):
    """A squarefree product of random integer polynomials of degree 1 to 6,
    with an x factor, a non-unit leading coefficient and rational content
    each drawn half the time."""
    f = QPoly.constant(draw(st.fractions(min_value=-9, max_value=9,
                                         max_denominator=12).filter(bool)))
    if draw(st.booleans()):
        f = f * qpoly(0, 1)
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        f = f * qpoly(*coeffs, draw(st.sampled_from(LEADS)))
    assume(f.coeff(0) != 0 or f.coeff(1) != 0)
    assume(squarefree(f))
    return f


@settings(max_examples=80, deadline=None)
@given(capped_inputs())
# a Swinnerton-Dyer quartic times a cubic: the quartic splits mod every prime
@example(SWINNERTON_DYER * qpoly(-2, 0, 0, 1))
def test_capped_factorization_matches_the_full_one(f):
    assert_caps_match_full(f, range(1, f.degree + 2))


def test_capped_swinnerton_dyer_quartic_times_a_line():
    # x^4 - 10x^2 + 1 = prod(x +- sqrt 2 +- sqrt 3) is irreducible over Q,
    # yet it splits into factors of degree <= 2 modulo every prime
    # (its discriminant is 2^14 3^2, so it is squarefree mod every l >= 5)
    for l in primes_below(200)[2:]:
        reduced = [c % l for c in SWINNERTON_DYER.int_coeffs()]
        residues = factorization.GoodReduction(l, reduced).residues(len(reduced) - 1)
        assert max(len(h) - 1 for h in residues) <= 2, l
    f = SWINNERTON_DYER * qpoly(1, 1)
    assert factor_int_poly(f, max_degree=3) == (1, [(qpoly(1, 1), 1)])
    assert factor_int_poly(f, max_degree=4) == (1, [(qpoly(1, 1), 1), (SWINNERTON_DYER, 1)])
    assert factor_int_poly(f, max_degree=4) == factor_int_poly(f)


def test_capped_factorization_of_psi_on_every_corpus_curve(bench_corpus):
    from fineselmer.elliptic import WeierstrassModel

    for curve, _ in bench_corpus.CURVES.values():
        E = WeierstrassModel(*curve).integral_model()
        for p in (3, 5, 7):
            assert_caps_match_full(E.division_polynomial(p), range(1, (p - 1) // 2 + 1))


def test_capped_recombination_finds_a_small_factor_of_many_residues():
    # mod 23 the quartic B splits into four lines and the irreducible sextic
    # A into a line and a quintic, so with the cap 5 nothing is lumped. A
    # is two residues of total degree 6 > 5; stopping at half the six
    # residues, as if those were all the subsets, would miss B, which
    # takes four of them
    A = qpoly(-2, 1, 3, 3, 3, -3, 1)
    f = A * SWINNERTON_DYER
    reduction = factorization.GoodReduction(23, [c % 23 for c in f.int_coeffs()])
    assert [len(h) - 1 for h in reduction.residues(5)] == [1, 1, 1, 1, 1, 5]
    for k, expected in ((3, []), (4, [SWINNERTON_DYER]), (5, [SWINNERTON_DYER]),
                        (6, [SWINNERTON_DYER, A])):
        assert factor_int_poly(f, max_degree=k, reduction=reduction) == (
            1, [(g, 1) for g in expected]), k


def test_cap_below_one_is_refused():
    with pytest.raises(ValueError, match="max_degree"):
        factor_int_poly(qpoly(1, 1), max_degree=0)


def test_recombination_never_takes_the_lumped_cofactor(monkeypatch):
    # only the small residues are lifted, so no subset tried holds a
    # factor above the cap; 32a2 at 7 leaves its three sextics mod 3 out
    from fineselmer.elliptic import WeierstrassModel

    try_subsets = factorization._try_subsets
    seen = []

    def recording(current, lifted, remaining, size, modulus, max_degree):
        seen.append(max(len(lifted[i]) - 1 for i in remaining))
        assert all(len(lifted[i]) - 1 <= max_degree for i in remaining)
        return try_subsets(current, lifted, remaining, size, modulus, max_degree)

    monkeypatch.setattr(factorization, "_try_subsets", recording)
    psi = WeierstrassModel(0, 0, 0, -1, 0).division_polynomial(7)
    assert factor_int_poly(psi, max_degree=3) == (1, [])
    assert seen and max(seen) == 3


@pytest.mark.parametrize("curve, p, degrees, handed, search", [
    # 32a2 at 7: [3, 3, 6, 6, 6] mod 3; the three sextics are never lifted.
    # The stable-line search's Frobenius screen rules every line out before
    # it factors, so psi_7 is factored here as the search would factor it
    pytest.param((0, 0, 0, -1, 0), 7, [3, 3, 6, 6, 6], 2, False, id="32a2-7"),
    # 26b1 at 7: [1, 1, 1, 3, 6, 6, 6] mod 3; it has a rational line, so
    # the search itself lifts, with the cap it passes to factor_int_poly
    pytest.param((1, -1, 1, -3, 3), 7, [1, 1, 1, 3, 6, 6, 6], 4, True, id="26b1-7"),
])
def test_the_lift_gets_only_the_small_factors(monkeypatch, curve, p, degrees, handed, search):
    from fineselmer import galoisimage
    from fineselmer.elliptic import WeierstrassModel

    E = WeierstrassModel(*curve)
    psi = E.division_polynomial(p)
    reduction = good_reduction(psi.int_coeffs())
    assert reduction.l == 3
    assert [len(h) - 1 for h in reduction.residues(psi.degree)] == degrees
    lift = factorization._hensel_lift_factors
    handed_degrees = []

    def counting(f, l, hbars, target):
        handed_degrees.append([len(h) - 1 for h in hbars])
        return lift(f, l, hbars, target)

    def run():
        if search:
            return galoisimage.find_stable_subgroups(E, p)
        return factor_int_poly(psi, max_degree=(p - 1) // 2,
                               reduction=good_reduction(psi.int_coeffs()))

    expected = run()
    monkeypatch.setattr(factorization, "_hensel_lift_factors", counting)
    assert run() == expected
    # one lift, of the residues of degree <= (p - 1) / 2 and no cofactor
    assert handed_degrees == [degrees[:handed]]
