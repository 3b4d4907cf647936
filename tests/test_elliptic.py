"""Weierstrass models, division polynomials, group law, point counting.

Cross-checks: invariant identities hold by construction (re-verified from
raw a-invariants here), coordinate changes compose and invert, the x-only
multiplication fractions agree with honest chord-tangent arithmetic over
finite fields, and traces of Frobenius sit inside the Hasse window.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fineselmer.elliptic import (
    WeierstrassModel,
    point_add,
    point_neg,
    scalar_mul,
    frobenius_traces,
    trace_of_frobenius,
)
from fineselmer.finitefield import FiniteField, FqPoly
from fineselmer.galoisimage import _velu_quotient, find_stable_subgroups
from fineselmer.localdata import tate_reduction
from fineselmer.modular import primes_below
from fineselmer.polynomial import QPoly, _horner
import oracles


def is_on_curve(ainvs, P) -> bool:
    """Does P satisfy the Weierstrass equation? None is the point at infinity."""
    if P is None:
        return True
    a1, a2, a3, a4, a6 = ainvs
    x, y = P
    return y * y + a1 * x * y + a3 * y == x**3 + a2 * x * x + a4 * x + a6


X11A1 = (0, -1, 1, -10, -20)
X11A2 = (0, -1, 1, -7820, -263580)

ainv = st.integers(-8, 8)
small_fraction = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def nonsingular(a1, a2, a3, a4, a6):
    try:
        return WeierstrassModel(a1, a2, a3, a4, a6)
    except ValueError:
        return None


# --- invariants and coordinate changes ---


@settings(max_examples=80, deadline=None)
@given(ainv, ainv, ainv, ainv, ainv)
def test_invariant_identities_from_scratch(a1, a2, a3, a4, a6):
    model = nonsingular(a1, a2, a3, a4, a6)
    if model is None:
        return
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    assert model.b2 == b2 and model.b4 == b4 and model.b6 == b6
    assert 4 * model.b8 == b2 * b6 - b4 * b4
    assert 1728 * model.discriminant == model.c4**3 - model.c6**2


def test_singular_model_rejected():
    with pytest.raises(ValueError):
        WeierstrassModel(0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        WeierstrassModel(0, 0, 0, -3, 2)  # y^2 = (x-1)^2 (x+2)


def test_float_a_invariant_refused():
    # 0.1 would enter as 3602879701896397/2^55, not as 1/10
    with pytest.raises(TypeError, match="float"):
        WeierstrassModel(0, 0, 1, -1, 0.1)
    assert WeierstrassModel(0, 0, 1, -1, "1/10").a6 == Fraction(1, 10)


def test_change_model_refuses_a_float():
    model = WeierstrassModel(*X11A1)
    for args in ((0.5, 0, 0, 0), (1, 0.5, 0, 0), (1, 0, 0, 2.0)):
        with pytest.raises(TypeError, match="float"):
            model.change_model(*args)
    assert model.change_model("1/2", 0, 0, 0) == model.change_model(Fraction(1, 2), 0, 0, 0)


# the one private slot holds the division-polynomial ladder
PUBLIC = [name for name in WeierstrassModel.__slots__ if not name.startswith("_")]


def assert_one_type(model):
    """All 12 attributes are ints (an integral model) or all are Fractions
    (any other), never a float and never a mix; j is a Fraction."""
    kind = int if all(Fraction(v).denominator == 1 for v in model.a_invariants) else Fraction
    assert model.is_integral == (kind is int)
    assert [type(getattr(model, name)) for name in PUBLIC] == [kind] * 12, model
    assert type(model.j_invariant) is Fraction


def assert_attributes(model, expected):
    assert PUBLIC == list(expected)
    assert_one_type(model)
    for name in PUBLIC:
        assert getattr(model, name) == expected[name], name
    assert model.j_invariant == expected["c4"] ** 3 / expected["discriminant"]


def ints_or_fractions(n, ints):
    """n-tuples drawn all from ints or all from small_fraction."""
    return st.booleans().flatmap(
        lambda integral: st.tuples(*[ints if integral else small_fraction] * n))


@settings(max_examples=150, deadline=None)
@given(
    ints_or_fractions(5, st.integers(-4, 4)),
    st.one_of(st.sampled_from([1, -1]),
              st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)),
    ints_or_fractions(3, st.integers(-6, 6)),
)
@example(a=(0, 0, 0, 0, 0), u=1, rst=(0, 0, 0))
@example(a=(0, 0, 0, -3, 2), u=1, rst=(0, 0, 0))
@example(a=(0, 0, 0, Fraction(-3, 4), Fraction(1, 4)), u=1, rst=(0, 0, 0))
def test_int_path_matches_fraction_path(a, u, rst):
    try:
        expected = oracles.invariants_fraction(*a)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            WeierstrassModel(*a)
        return
    model = WeierstrassModel(*a)
    assert_attributes(model, expected)
    moved = model.change_model(u, *rst)
    assert_attributes(moved, oracles.invariants_fraction(
        *oracles.change_model_fraction(model, u, *rst)))


@settings(max_examples=100, deadline=None)
@given(
    ints_or_fractions(5, st.integers(-6, 6)),
    st.one_of(st.sampled_from([-1, 2, 3]),
              st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)),
    ints_or_fractions(3, st.integers(-4, 4)),
    st.sampled_from([2, 3, 5, 7]),
)
@example(a=(0, -1, 1, -10, -20), u=-1, rst=(0, 0, 0), ell=2)
@example(a=(Fraction(1, 2), 0, 0, -1, 0), u=2, rst=(1, 0, 0), ell=3)
def test_no_float_reaches_a_model_and_each_model_has_one_type(a, u, rst, ell):
    # an int u divides by u^k through Fraction, never as int / int
    model = nonsingular(*a)
    assume(model is not None)
    from_fractions = WeierstrassModel(*map(Fraction, a))
    assert from_fractions == model and hash(from_fractions) == hash(model)
    moved = model.change_model(u, *rst)
    integral = moved.integral_model()
    minimal = tate_reduction(moved, ell).minimal_model
    for m in (model, from_fractions, moved, integral, minimal):
        assert_one_type(m)


def test_corpus_velu_quotients_have_one_type(bench_corpus):
    quotients = 0
    for label, p in sorted({(job.label, job.p) for job in bench_corpus.ISOGENY_LINES}):
        E = WeierstrassModel(*bench_corpus.CURVES[label][0])
        for w in find_stable_subgroups(E, p):
            assert_one_type(_velu_quotient(E, w.kernel_monic))
            assert_one_type(w.quotient)
            assert w.quotient.is_integral, (label, p)
            quotients += 1
    assert quotients >= 7


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3).filter(bool),
    small_fraction,
    small_fraction,
    small_fraction,
)
def test_change_model_inverts(u, r, s, t):
    model = WeierstrassModel(*X11A2)
    moved = model.change_model(u, r, s, t)
    # the inverse transform: u' = 1/u, r' = -r/u^2, s' = -s/u, t' = (rs-t)/u^3
    back = moved.change_model(1 / u, -r / u**2, -s / u, (r * s - t) / u**3)
    assert back == model
    assert moved.j_invariant == model.j_invariant
    assert moved.discriminant * u**12 == model.discriminant
    assert moved.c4 * u**4 == model.c4


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3), small_fraction, small_fraction, small_fraction,
    st.integers(1, 3), small_fraction, small_fraction, small_fraction,
)
def test_change_model_composes(u1, r1, s1, t1, u2, r2, s2, t2):
    model = WeierstrassModel(*X11A1)
    chained = model.change_model(u1, r1, s1, t1).change_model(u2, r2, s2, t2)
    # composite parameters per the standard composition law
    u = u1 * u2
    r = r1 + u1 * u1 * r2
    s = s1 + u1 * s2
    t = t1 + u1 * u1 * s1 * r2 + u1**3 * t2
    assert chained == model.change_model(u, r, s, t)


def test_integral_model_clears_denominators():
    messy = WeierstrassModel(*X11A2).change_model(Fraction(2, 5), 0, 0, 0)
    fixed = messy.integral_model()
    assert fixed.is_integral
    assert fixed.j_invariant == messy.j_invariant
    already = WeierstrassModel(*X11A2)
    assert already.integral_model() is already


def test_j_invariant_values():
    assert WeierstrassModel(*X11A1).j_invariant == Fraction(-122023936, 161051)
    assert WeierstrassModel(*X11A2).j_invariant == Fraction(-52893159101157376, 11)
    assert WeierstrassModel(0, 0, 0, 0, 1).j_invariant == 0
    assert WeierstrassModel(0, 0, 0, 1, 0).j_invariant == 1728


# --- division polynomials ---


def test_division_polynomial_shape_random_curves():
    rng = random.Random(41)
    models = []
    while len(models) < 25:
        m = nonsingular(*(rng.randint(-9, 9) for _ in range(5)))
        if m is not None:
            models.append(m)
    for p in (3, 5, 7, 11, 13):
        for m in models:
            psi = m.division_polynomial(p)
            assert psi.degree == (p * p - 1) // 2
            assert psi.leading == p
            assert psi.is_integral


def test_division_polynomial_classical_values():
    # y^2 = x^3 + ax + b: psi_3 = 3x^4 + 6ax^2 + 12bx - a^2
    a, b = -7, 10
    psi3 = WeierstrassModel(0, 0, 0, a, b).division_polynomial(3)
    assert list(psi3.int_coeffs()) == [-a * a, 12 * b, 6 * a, 0, 3]


def test_division_polynomial_rejects_bad_inputs():
    model = WeierstrassModel(*X11A2)
    for n in (2, 4, 15, 1):
        with pytest.raises(ValueError):
            model.division_polynomial(n)
    with pytest.raises(ValueError):
        model.change_model(2, 0, 0, 0).division_polynomial(5)


# --- the integer ladder against the QPoly ladder it replaced ---


def isogeny_13_curve():
    """y^2 = x^3 - 3k x - 2k(j - 1728), k = j(j - 1728): a model with
    j-invariant j = 19 * 48^3, a curve with a rational 13-isogeny."""
    j = 19 * 48**3
    k = j * (j - 1728)
    return (0, 0, 0, -3 * k, -2 * k * (j - 1728))


LADDER_CURVES = {
    "11a1": X11A1,
    "37a1": (0, 0, 1, -1, 0),
    "20a1": (0, 1, 0, 4, 4),
    "13-isogeny": isogeny_13_curve(),
}


@pytest.mark.parametrize("name", sorted(LADDER_CURVES))
def test_int_ladder_matches_qpoly_ladder_on_named_curves(name):
    model = WeierstrassModel(*LADDER_CURVES[name])
    for n in range(3, 14, 2):
        assert model.division_polynomial(n) == oracles.division_polynomial_qpoly(model, n)
    for k in range(2, 14):
        assert model.x_multiple_fraction(k) == oracles.x_multiple_fraction_qpoly(model, k)


@settings(max_examples=25, deadline=None)
@given(st.tuples(ainv, ainv, ainv, ainv, ainv), st.integers(1, 6), st.integers(2, 13))
def test_int_ladder_matches_qpoly_ladder(a, half, k):
    model = nonsingular(*a)
    assume(model is not None)
    n = 2 * half + 1
    assert model.division_polynomial(n) == oracles.division_polynomial_qpoly(model, n)
    assert model.x_multiple_fraction(k) == oracles.x_multiple_fraction_qpoly(model, k)


def test_ladder_never_multiplies_qpolys(monkeypatch):
    def boxed(*args):
        raise AssertionError("a QPoly product ran in the ladder")

    model = WeierstrassModel(*X11A2)
    expected_psi = oracles.division_polynomial_qpoly(model, 13)
    expected_map = oracles.x_multiple_fraction_qpoly(model, 13)
    monkeypatch.setattr(QPoly, "__mul__", boxed)
    assert model.division_polynomial(13) == expected_psi
    assert model.x_multiple_fraction(13) == expected_map


def test_a_model_builds_its_ladder_once(monkeypatch):
    built = []
    build = WeierstrassModel._division_ladder

    def counting(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(WeierstrassModel, "_division_ladder", counting)
    model = WeierstrassModel(*X11A1)
    psi5 = model.division_polynomial(5)
    # later reads, of any kind and in any order, come off the same ladder
    assert model.x_multiple_fraction(2) == oracles.x_multiple_fraction_qpoly(model, 2)
    assert model.division_polynomial(13) == oracles.division_polynomial_qpoly(model, 13)
    assert model.x_multiple_fraction(12) == oracles.x_multiple_fraction_qpoly(model, 12)
    assert model.division_polynomial(5) == psi5
    assert len(built) == 1 and built[0] is model
    # the ladder is kept with the object: an equal model builds its own
    twin = WeierstrassModel(*X11A1)
    assert twin == model and hash(twin) == hash(model)
    assert twin.division_polynomial(5) == psi5
    assert len(built) == 2 and built[1] is twin
    with pytest.raises(AttributeError, match="immutable"):
        model._ladder = None


def test_x_multiple_fraction_rejects_a_non_integral_model():
    model = WeierstrassModel(*X11A2).change_model(2, 0, 0, 0)
    assert not model.is_integral
    with pytest.raises(ValueError, match="integral"):
        model.x_multiple_fraction(2)
    for k in (1, 14):
        with pytest.raises(ValueError, match="range"):
            WeierstrassModel(*X11A2).x_multiple_fraction(k)


def test_psi5_roots_are_5_torsion_over_extensions():
    # each root x0 of psi_5 mod ell, paired with a y solving the curve
    # equation over F_ell or its quadratic extension, must satisfy [5]P = O
    model = WeierstrassModel(*X11A1)
    psi5 = model.division_polynomial(5)
    for ell in (7, 13, 19, 23):
        for k in (1, 2):
            F = oracles.FiniteField(ell, k)
            a = model.reduction(F)
            psi = oracles.FqPoly(F, [F.element(int(c)) for c in psi5.int_coeffs()])
            for x0 in psi.roots():
                # y^2 + (a1 x + a3) y - (x^3 + a2 x^2 + a4 x + a6) = 0
                B = a[0] * x0 + a[2]
                C = -(x0**3 + a[1] * x0 * x0 + a[3] * x0 + a[4])
                disc = B * B - 4 * C
                if not oracles.is_square(disc):
                    continue  # y lives one extension up; the x-root is still torsion
                ys = [y for y in F.elements() if (y + B) * y + C == F.zero()]
                assert ys
                for y0 in ys:
                    P = (x0, y0)
                    assert is_on_curve(a, P)
                    assert scalar_mul(a, 5, P) is None
                    assert scalar_mul(a, 1, P) == P


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([5, 7, 11, 13, 17, 19]), st.integers(2, 9))
def test_x_multiple_fraction_matches_group_law(ell, k):
    model = WeierstrassModel(*X11A2)
    if ell == 11:
        return  # bad reduction
    F = FiniteField(ell, 1)
    a = model.reduction(F)
    num, den = model.x_multiple_fraction(k)
    # num and den mod ell, evaluated on field elements with the kernel
    # FqPoly.roots runs on
    num_f = [F.element(int(c)) for c in num.int_coeffs()]
    den_f = [F.element(int(c)) for c in den.int_coeffs()]
    for x0 in F.elements():
        B = a[0] * x0 + a[2]
        C = -(x0**3 + a[1] * x0 * x0 + a[3] * x0 + a[4])
        ys = [y for y in F.elements() if (y + B) * y + C == F.zero()]
        for y0 in ys:
            P = (x0, y0)
            Q = scalar_mul(a, k, P)
            den_x0 = F.element(_horner(den_f, x0))
            if den_x0 == F.zero():
                # vanishing denominator encodes [k]P = O
                assert Q is None
            else:
                assert Q is not None
                assert Q[0] == F.element(_horner(num_f, x0)) / den_x0


# --- group law over Q ---


@settings(max_examples=40, deadline=None)
@given(st.integers(-7, 7), st.integers(-7, 7))
def test_scalar_mul_is_additive_on_a_rational_point(m, n):
    # (0, 0) has infinite order on y^2 + y = x^3 - x; additivity
    # [m]P + [n]P = [m+n]P exercises every chord-tangent branch
    a = tuple(Fraction(v) for v in (0, 0, 1, -1, 0))
    P = (Fraction(0), Fraction(0))
    assert is_on_curve(a, P)
    lhs = point_add(a, scalar_mul(a, m, P), scalar_mul(a, n, P))
    rhs = scalar_mul(a, m + n, P)
    assert lhs == rhs
    if lhs is not None:
        assert is_on_curve(a, lhs)


def test_point_negation_and_two_torsion():
    a = tuple(Fraction(v) for v in (0, 0, 0, -1, 0))  # y^2 = x^3 - x
    for x in (-1, 0, 1):
        P = (Fraction(x), Fraction(0))
        assert is_on_curve(a, P)
        assert point_neg(a, P) == P
        assert point_add(a, P, P) is None
        assert scalar_mul(a, 2, P) is None


def test_rational_five_torsion_point():
    # (5, 5) generates the rational 5-torsion of y^2 + y = x^3 - x^2 - 10x - 20
    a = tuple(Fraction(v) for v in X11A1)
    P = (Fraction(5), Fraction(5))
    orbit = [P]
    Q = P
    for _ in range(4):
        Q = point_add(a, Q, P)
        orbit.append(Q)
    assert orbit[-1] is None
    assert all(is_on_curve(a, R) for R in orbit[:-1])
    assert len({R[0] for R in orbit[:-1]}) == 2  # x-coords pair up under negation


# --- point counting ---


def exhaustive_count(model: WeierstrassModel, F: oracles.FiniteField) -> int:
    a = model.reduction(F)
    total = 1
    for x in F.elements():
        for y in F.elements():
            if (y + a[0] * x + a[2]) * y == x**3 + a[1] * x * x + a[3] * x + a[4]:
                total += 1
    return total


def test_count_points_vs_exhaustive():
    rng = random.Random(17)
    fields = [oracles.FiniteField(q, k) for q, k in ((3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (2, 3))]
    checked = 0
    while checked < 15:
        m = nonsingular(*(rng.randint(-5, 5) for _ in range(5)))
        if m is None:
            continue
        for F in fields:
            try:
                fast = oracles.count_points(m, F)
            except ValueError:
                continue  # singular reduction at this characteristic
            assert fast == exhaustive_count(m, F)
            checked += 1


def test_trace_and_hasse_bound():
    model = WeierstrassModel(*X11A2)
    for ell in (2, 3, 5, 7, 13, 97, 199):
        t = trace_of_frobenius(model, ell)
        assert t * t <= 4 * ell
        assert oracles.count_points(model, oracles.FiniteField(ell, 1)) == ell + 1 - t


def test_trace_checks_the_range_before_primality(deadline):
    # 2^89 - 1 is prime but above the range where Miller-Rabin proves
    # it; the range check has to come first
    with deadline(5), pytest.raises(ValueError, match="ell must be a prime <= "):
        trace_of_frobenius(WeierstrassModel(*X11A1), 2**89 - 1)


def test_known_traces_11a():
    # shared isogeny-class traces: a_2 = -2, a_3 = -1, a_5 = 1, a_7 = -2
    model = WeierstrassModel(*X11A2)
    assert trace_of_frobenius(model, 2) == -2
    assert trace_of_frobenius(model, 3) == -1
    assert trace_of_frobenius(model, 5) == 1
    assert trace_of_frobenius(model, 7) == -2
    assert trace_of_frobenius(WeierstrassModel(*X11A1), 2) == -2


def test_torsion_count_consistency_small_fields():
    # #E(F_ell)[p] computed from psi_p roots + y-rationality must divide
    # the full group order and be a p-group of order 1, p, or p^2
    model = WeierstrassModel(*X11A2)
    p = 5
    psi = model.division_polynomial(p)
    for ell in (3, 7, 13, 19, 31, 41):
        F = FiniteField(ell, 1)
        a = model.reduction(F)
        psi_f = FqPoly(F, [F.element(int(c)) for c in psi.int_coeffs()])
        torsion = 1
        for x0 in psi_f.roots():
            B = a[0] * x0 + a[2]
            C = -(x0**3 + a[1] * x0 * x0 + a[3] * x0 + a[4])
            torsion += len([y for y in F.elements() if (y + B) * y + C == F.zero()])
        assert torsion in (1, p, p * p)
        n = oracles.count_points(model, oracles.FiniteField(ell, 1))
        if torsion > 1:
            assert n % torsion == 0
        # exhaustive cross-check: points killed by [p]
        killed = 1
        for x in F.elements():
            for y in F.elements():
                if (y + a[0] * x + a[2]) * y == x**3 + a[1] * x * x + a[3] * x + a[4]:
                    if scalar_mul(a, p, (x, y)) is None:
                        killed += 1
        assert killed == torsion


# --- the plain-int trace kernel against the boxed F_q count ---

# good at 2 and 3; a1, a3 != 0, negative entries, entries far above ell
TRACE_ORACLE_CURVES = (
    (1, -1, 1, -3, 4),
    (-3, 17, -5, -401, 1198),
    X11A2,
    (123457, -98765, 4321, -1000003, 77777778),
)


def slow_trace(model, ell):
    return ell + 1 - oracles.count_points(model, oracles.FiniteField(ell, 1))


def good_primes(model, bound):
    disc = int(model.discriminant)
    return [ell for ell in primes_below(bound) if disc % ell]


@pytest.mark.parametrize("ainvs", TRACE_ORACLE_CURVES)
def test_trace_kernel_matches_boxed_count(ainvs):
    model = WeierstrassModel(*ainvs)
    ells = good_primes(model, 200)
    assert 2 in ells and 3 in ells
    for ell in ells:
        assert trace_of_frobenius(model, ell) == slow_trace(model, ell), (ainvs, ell)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(-10**6, 10**6)] * 5), st.sampled_from(primes_below(60)))
def test_trace_kernel_matches_boxed_count_random(ainvs, ell):
    model = nonsingular(*ainvs)
    if model is None or int(model.discriminant) % ell == 0:
        return
    assert trace_of_frobenius(model, ell) == slow_trace(model, ell)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(-10**4, 10**4)] * 5))
@example((0, 0, 1, -1, 0))
@example((1, -1, 1, -3, 4))
def test_trace_sweep_matches_boxed_count_below_200(ainvs):
    # every good ell < 200 in one sweep, 3, 5 and 7 among them; at 3 the
    # third difference 24 of F vanishes mod ell, and for 37a1, with b2 = 0,
    # so does the second difference 24 + 2 b2
    model = nonsingular(*ainvs)
    assume(model is not None)
    ells = good_primes(model, 200)
    assume({3, 5, 7} <= set(ells))
    assert frobenius_traces(model, ells) == [slow_trace(model, ell) for ell in ells]


def test_trace_sweep_of_no_prime_is_empty_and_checks_each_prime():
    model = WeierstrassModel(*X11A1)
    assert frobenius_traces(model, []) == []
    assert frobenius_traces(model, [2, 3, 5]) == [trace_of_frobenius(model, ell) for ell in (2, 3, 5)]
    with pytest.raises(ValueError, match="divides the discriminant"):
        frobenius_traces(model, [2, 11])
    with pytest.raises(ValueError, match="ell must be a prime"):
        frobenius_traces(model, [3, 9])


def test_trace_kernel_input_contract():
    model = WeierstrassModel(*X11A1)
    with pytest.raises(ValueError):
        trace_of_frobenius(model, 11)  # bad reduction
    with pytest.raises(ValueError):
        trace_of_frobenius(model, 9)  # not a prime
    with pytest.raises(ValueError):
        trace_of_frobenius(WeierstrassModel(0, 0, 0, Fraction(1, 2), 1), 3)
