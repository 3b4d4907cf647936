"""Local reduction data: Kodaira typing, place sets, g_v, delta_v.

tate_reduction is validated three ways: hand-worked small-characteristic
cases, agreement between the full step loop and the large-residue shortcut
on random (sometimes deliberately non-minimal) models, and invariance under
unimodular coordinate changes.  The splitting law over the degree-(p-1)
cyclotomic layer is pinned by finite_level_place_count, a direct orbit
count at each finite level.
"""

import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fineselmer import localdata
from fineselmer.cyclotomic import is_regular, kinf_ramification
from fineselmer.elliptic import WeierstrassModel, trace_of_frobenius
from fineselmer.galoisimage import classify_image
from fineselmer.lambdabound import compute_lambda_bound
from fineselmer.localdata import (
    _tate_shortcut,
    compute_place_sets,
    delta_v,
    finite_level_place_count,
    g_v,
    reduction_over_K,
    tate_reduction,
    tate_reduction_full,
)
from fineselmer.padic import PadicNumber, PadicRoots, padic_roots
import oracles

E11A1 = WeierstrassModel(0, -1, 1, -10, -20)
E11A2 = WeierstrassModel(0, -1, 1, -7820, -263580)
E49A1 = WeierstrassModel(1, -1, 0, -2, -1)
E121B1 = WeierstrassModel(0, -1, 1, -7, 10)
E26B1 = WeierstrassModel(1, -1, 1, -3, 3)


# --- Kodaira types ---


def test_hand_worked_types_at_two():
    r = tate_reduction(WeierstrassModel(0, 0, 0, 0, 2), 2)
    assert (r.kodaira, r.category) == ("II", "additive")
    r = tate_reduction(WeierstrassModel(0, 0, 0, 2, 0), 2)
    assert (r.kodaira, r.category) == ("III", "additive")
    r = tate_reduction(WeierstrassModel(0, 0, 0, 0, 4), 2)
    assert (r.kodaira, r.category) == ("IV*", "additive")


def test_non_minimal_model_restarts():
    # y^2 = x^3 + 16 is y^2 + y = x^3 rescaled by u = 2: good at 2 after
    # the minimality restart, with minimal discriminant -27
    r = tate_reduction(WeierstrassModel(0, 0, 0, 0, 16), 2)
    assert (r.kodaira, r.category, r.v_disc) == ("I0", "good", 0)
    assert r.minimal_model.discriminant == -27


def test_additive_at_seven_both_routes():
    r = tate_reduction(E49A1, 7)
    assert (r.kodaira, r.category, r.v_disc, r.v_c4) == ("III", "additive", 3, 1)
    rf = tate_reduction_full(E49A1, 7)
    assert (rf.kodaira, rf.category, rf.v_disc) == ("III", "additive", 3)


def test_multiplicative_at_eleven():
    r = tate_reduction(E11A1, 11)
    assert (r.kodaira, r.category, r.v_disc, r.split) == ("I5", "multiplicative", 5, True)
    r = tate_reduction(E11A2, 11)
    assert (r.kodaira, r.category, r.v_disc, r.split) == ("I1", "multiplicative", 1, True)
    assert tate_reduction(E121B1, 11).category == "additive"


def test_good_reduction_elsewhere():
    for ell in (2, 3, 5, 7, 13):
        assert tate_reduction(E11A1, ell).category == "good"


@pytest.mark.parametrize("ell", [-3, 0, 1, 4, 6, 15, 25, 55])
def test_composite_ell_is_refused(ell):
    # 15, 25 and 55 once read as good reduction, though 11 | 55
    for fn in (tate_reduction, tate_reduction_full):
        with pytest.raises(ValueError, match="ell must be prime"):
            fn(E11A1, ell)


@pytest.mark.parametrize("p", [-3, 0, 1, 2, 4, 15, 25, 55])
def test_p_must_be_an_odd_prime(p):
    calls = (lambda: compute_place_sets(E11A1, p),
             lambda: compute_place_sets(E11A1, p, "Q(mu_p)"),
             lambda: reduction_over_K(E11A1, 11, p),
             lambda: g_v(11, p),
             lambda: finite_level_place_count(11, p, 2),
             lambda: delta_v(E11A1, p),
             lambda: is_regular(p))
    for call in calls:
        with pytest.raises(ValueError, match="^p must be an odd prime$"):
            call()


def test_full_loop_agrees_with_shortcut():
    rng = random.Random(7)
    checked = 0
    for _ in range(250):
        a = [rng.randint(-6, 6) for _ in range(5)]
        try:
            E = WeierstrassModel(*a)
        except ValueError:
            continue
        ell = rng.choice([5, 7, 13])
        if rng.random() < 0.3:
            E = E.change_model(Fraction(1, ell), 0, 0, 0)  # engineered non-minimal
        s = _tate_shortcut(E, ell)
        f = tate_reduction_full(E, ell)
        assert (s.kodaira, s.category, s.v_disc, s.split) == (
            f.kodaira, f.category, f.v_disc, f.split,
        ), (a, ell)
        checked += 1
    assert checked > 150


def test_full_loop_agrees_with_shortcut_on_I_n_star():
    # the quadratic twist by ell of a curve with multiplicative reduction at
    # ell has type I_n*; on these models the full loop's I_n* chain meets
    # double roots away from 0
    for ell, a in ((5, (0, -1, 1, 10, 6)), (7, (0, 1, 1, 7, 12)), (11, (0, -1, 1, -10, -20))):
        E = WeierstrassModel(*a)
        twist = WeierstrassModel(0, 0, 0, -27 * E.c4 * ell**2, -54 * E.c6 * ell**3)
        s = _tate_shortcut(twist, ell)
        f = tate_reduction_full(twist, ell)
        assert s.kodaira.startswith("I") and s.kodaira.endswith("*") and s.kodaira != "I0*"
        assert (s.kodaira, s.category, s.v_disc) == (f.kodaira, f.category, f.v_disc), (ell, a)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*(st.integers(-5, 5) for _ in range(5))),
    st.sampled_from([2, 3]),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
def test_unimodular_invariance(a, ell, r0, s0, t0):
    try:
        E = WeierstrassModel(*a)
    except ValueError:
        return
    base = tate_reduction(E, ell)
    moved = tate_reduction(E.change_model(1, r0, s0, t0), ell)
    assert (base.kodaira, base.category, base.v_disc, base.split) == (
        moved.kodaira, moved.category, moved.v_disc, moved.split,
    )


# --- reduction over the cyclotomic field ---


def test_splitting_of_eleven_over_Qmu5():
    # unramified: f g = p - 1 leaves no room for e > 1
    k = reduction_over_K(E11A2, 11, 5)
    assert (k.f, k.g) == (1, 4) and k.f * k.g == 5 - 1
    assert k.base.category == "multiplicative" and k.split is True


def find_nonsplit_at_two():
    for a in product(range(2), range(-3, 4), range(2), range(-3, 4), range(-3, 4)):
        try:
            E = WeierstrassModel(*a)
        except ValueError:
            continue
        r = tate_reduction(E, 2)
        if r.category == "multiplicative" and r.split is False:
            return E
    raise AssertionError("search window contains nonsplit tori; widen it")


def test_nonsplit_torus_splits_iff_residue_degree_even():
    # the quadratic twist trivializes over the even-degree residue extension
    E = find_nonsplit_at_two()
    k5 = reduction_over_K(E, 2, 5)  # ord(2 mod 5) = 4
    assert k5.f == 4 and k5.split is True
    k7 = reduction_over_K(E, 2, 7)  # ord(2 mod 7) = 3
    assert k7.f == 3 and k7.split is False


# one curve with nonsplit multiplicative reduction at each odd ell
NONSPLIT_AT = {
    3: (0, -1, 0, -12, -12),
    7: (0, -1, 0, -12, -10),
    13: (0, -1, 0, -8, -7),
    31: (0, -1, 0, -9, -12),
    97: (0, -1, 0, 1, 8),
    199: (0, -1, 0, -2, 9),
}


def test_split_over_K_matches_oracle_square_in_residue_field():
    # the torus splits over F_{ell^f} exactly when -c6 is a square there
    parities = set()
    for ell, a in NONSPLIT_AT.items():
        base = tate_reduction(WeierstrassModel(*a), ell)
        assert base.category == "multiplicative" and base.split is False
        for p in (3, 5, 7, 11, 13):
            if p == ell:
                continue
            k = reduction_over_K(WeierstrassModel(*a), ell, p)
            residue_field = oracles.FiniteField(ell, k.f)
            minus_c6 = residue_field.element(int(-base.minimal_model.c6))
            assert k.split == oracles.is_square(minus_c6), (ell, p, k.f)
            parities.add(k.f % 2)
    assert parities == {0, 1}


# --- place sets ---


def test_place_sets_over_Q():
    ps = compute_place_sets(E11A2, 5, "Q")
    assert ps.good_above_p
    assert [(r.residue_char, r.residue_degree, r.count) for r in ps.bad_places] == [
        (11, 1, 1)]
    assert ps.bad_places[0].in_S0
    assert ps.bad_places[0].category == "multiplicative"


def test_place_sets_over_Qmup():
    # the four places above 11 = 1 (mod 5) share one record
    ps = compute_place_sets(E11A2, 5, "Q(mu_p)")
    assert [(r.residue_char, r.residue_degree, r.count) for r in ps.bad_places] == [
        (11, 1, 4)]
    assert all(r.in_S0 for r in ps.bad_places)
    # the report lists them one by one, then the ramified place above 5
    labels = [t.label for t in compute_lambda_bound(E11A2, 5, "Q(mu_p)").terms]
    assert labels == ["11.1", "11.2", "11.3", "11.4", "eta_5"]


def test_conjugate_places_share_one_record():
    # 26b1 at 7: 2 has order 3 and 13 order 2 mod 7, so 2 splits into two
    # places of Q(mu_7) and 13 into three, all split multiplicative
    ps = compute_place_sets(E26B1, 7, "Q(mu_p)")
    assert [(r.residue_char, r.residue_degree, r.count, r.kodaira, r.in_S0)
            for r in ps.bad_places] == [(2, 3, 2, "I7", True), (13, 2, 3, "I1", True)]
    assert all(r.residue_degree * r.count == 7 - 1 for r in ps.bad_places)


def test_S0_empty_cases():
    # additive at the single bad prime, with mu_p inside the local field:
    # the split-multiplicative membership test excludes the place
    ps49 = compute_place_sets(E49A1, 3, "Q")
    assert ps49.good_above_p and ps49.S0 == ()
    ps121 = compute_place_sets(E121B1, 5, "Q")
    assert ps121.good_above_p and ps121.S0 == ()


def test_S0_membership_depends_on_mu_p():
    # 11a1 at p = 7: 11 is not 1 mod 7, so mu_7 is not in Q_11 and the
    # multiplicative place lands in S0 regardless of splitting
    ps = compute_place_sets(E11A1, 7, "Q")
    assert [r.residue_char for r in ps.bad_places] == [11]
    assert ps.bad_places[0].in_S0


def test_bad_reduction_above_p_flagged():
    ps = compute_place_sets(E11A2, 11, "Q")
    assert not ps.good_above_p


@pytest.mark.parametrize("field", ["Q", "Q(mu_p)"])
@pytest.mark.parametrize("model,p,good", [
    (E11A2, 11, False),
    # 5^12 divides the discriminant of this non-minimal model of 11a1
    (E11A1.change_model(Fraction(1, 5), 0, 0, 0), 5, True),
])
def test_reduction_above_p_is_decided_once(monkeypatch, field, model, p, good):
    calls = []
    tate = localdata.tate_reduction

    def counting(m, ell):
        calls.append(ell)
        return tate(m, ell)

    monkeypatch.setattr(localdata, "tate_reduction", counting)
    assert compute_place_sets(model, p, field).good_above_p is good
    assert calls.count(p) == 1


# --- g_v ---


def test_g_closed_form_worked_values():
    assert g_v(11, 5, "Q") == 1          # v_5(11^4 - 1) = 1
    assert g_v(5, 5, "Q") == 1           # the place above p never splits
    assert g_v(11, 5, "Q(mu_p)", residue_degree=1) == 1
    assert g_v(101, 5, "Q") == 5         # v_5(101^4 - 1) = 2


def test_finite_level_place_counts_stabilize():
    for n in range(5):
        assert finite_level_place_count(101, 5, n) == 5 ** min(n, 1)
        assert finite_level_place_count(11, 5, n) == 1


@pytest.mark.parametrize("n", [-1, -2])
def test_finite_level_place_count_rejects_a_negative_layer(n):
    for ell, field in ((101, "Q"), (5, "Q"), (11, "Q(mu_p)")):
        with pytest.raises(ValueError, match="layer n must be >= 0"):
            finite_level_place_count(ell, 5, n, field)


@pytest.mark.parametrize("field", ["R", "Q(mu_5)", "q", ""])
def test_field_must_be_one_of_the_two(field):
    # finite_level_place_count once read any field but "Q" as Q(mu_p),
    # and classify_image and kinf_ramification had messages of their own
    message = re.escape(f"field must be one of ('Q', 'Q(mu_p)'), got {field!r}")
    calls = (lambda: compute_place_sets(E11A1, 5, field),
             lambda: g_v(11, 5, field),
             lambda: finite_level_place_count(11, 5, 2, field),
             lambda: finite_level_place_count(5, 5, 2, field),
             lambda: delta_v(E11A1, 5, field),
             lambda: classify_image(E11A1, 5, field),
             lambda: kinf_ramification(5, field),
             lambda: compute_lambda_bound(E11A1, 5, field))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_g_law_matches_orbit_count_sample():
    # closed form vs the finite-level oracle on a slice of primes; the
    # full ell < 500 sweep lives in the acceptance suite
    for p in (3, 5, 7):
        for ell in (2, 3, 5, 7, 11, 13, 17, 101, 151, 211, 307, 401, 499):
            if ell == p:
                continue
            expected = g_v(ell, p, "Q")
            counts = [finite_level_place_count(ell, p, n) for n in range(7)]
            assert counts == sorted(counts)
            assert expected == counts[-1]
            assert counts[-1] == counts[-2]  # stabilized by level 6


# --- delta_v ---


def test_delta_good_ordinary_congruence():
    d = delta_v(E49A1, 3)
    assert (d.value, d.provenance, d.method) == (0, "computed-exact", "reduction-congruence")
    d = delta_v(E121B1, 5)
    assert (d.value, d.provenance) == (0, "computed-exact")


def test_delta_rational_torsion():
    d = delta_v(WeierstrassModel(1, 0, 2, 0, 0), 3)  # (0, 0) is 3-torsion
    assert (d.value, d.method) == (2, "division-poly-root")
    d = delta_v(E11A1, 5)  # rational 5-torsion at x = 5, 16
    assert (d.value, d.method) == (2, "division-poly-root")


def test_delta_congruent_trace_without_torsion():
    # a_5 = 1 mod 5 forces the root search, which certifies emptiness
    d = delta_v(E11A2, 5)
    assert (d.value, d.provenance, d.method) == (0, "computed-exact", "division-poly-exhausted")


def _search_curves():
    """(curve, p, its DeltaResult) on both search outcomes."""
    return ((E11A1, 5, delta_v(E11A1, 5)), (E11A2, 5, delta_v(E11A2, 5)))


def test_delta_searches_once_at_precision_32(monkeypatch):
    calls = []

    def counting(f, p, absprec):
        calls.append(absprec)
        return padic_roots(f, p, absprec)

    monkeypatch.setattr(localdata, "padic_roots", counting)
    for E, p, expected in _search_curves():
        calls.clear()
        assert delta_v(E, p) == expected
        assert calls == [32]
    with pytest.raises(TypeError):
        delta_v(E11A1, 5, precision=32)


def test_delta_runs_no_padic_number_arithmetic():
    # the package's PadicNumber is a root value with no arithmetic, and
    # localdata reads its roots only through lift()
    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__",
                 "__truediv__", "inverse", "from_rational", "agrees_with"):
        assert not hasattr(PadicNumber, name), name
    assert not hasattr(localdata, "PadicNumber")
    for E, p, _ in _search_curves():
        psi = E.integral_model().division_polynomial(p)
        assert all(type(r) is PadicNumber for r in padic_roots(psi, p).certified)


@pytest.mark.parametrize("precision, searched", [(1, 17), (None, 32), (256, 256)])
def test_incomplete_search_is_conservative_at_the_searched_precision(
        monkeypatch, precision, searched):
    # FINESELMER_PRECISION=precision (None: unset) once moved the search to
    # absprec `searched`.  The variable is not read now: the one search at 32
    # decides as the one at `searched` did, and an incomplete one names 32.
    if precision is None:
        monkeypatch.delenv("FINESELMER_PRECISION", raising=False)
    else:
        monkeypatch.setenv("FINESELMER_PRECISION", str(precision))
    psi = tate_reduction(E11A2, 5).minimal_model.division_polynomial(5)
    then, now = padic_roots(psi, 5, searched), padic_roots(psi, 5, 32)
    assert (then.inconclusive, len(then.certified)) == (now.inconclusive, len(now.certified))
    assert delta_v(E11A2, 5).method == "division-poly-exhausted"

    calls = []

    def incomplete(f, p, absprec):
        calls.append(absprec)
        return PadicRoots((), ("depth budget exhausted",))

    monkeypatch.setattr(localdata, "padic_roots", incomplete)
    d = delta_v(E11A2, 5)
    assert calls == [32]
    assert (d.value, d.provenance, d.method) == (2, "conservative", "search-budget-exhausted")
    assert d.notes == ("root separation incomplete at precision 32; "
                       "reporting the safe upper value",)


def _y_tests_agree(E, p) -> int:
    """Compare the Legendre y-test with the PadicNumber oracle on every
    certified Z_p-root of psi_p; returns how many roots were compared."""
    roots = padic_roots(E.division_polynomial(p), p).certified
    for root in roots:
        assert (localdata._torsion_x_has_rational_y(E, root.lift(), p)
                is oracles.torsion_x_has_rational_y_padic(E, root, p))
    return len(roots)


def test_legendre_y_test_matches_the_padic_oracle_on_the_corpus(bench_corpus):
    pairs = {(job.label, job.p) for jobs in vars(bench_corpus).values()
             if isinstance(jobs, tuple) for job in jobs
             if isinstance(job, bench_corpus.Job)}
    compared = 0
    for label, p in sorted(pairs):
        red = tate_reduction(WeierstrassModel(*bench_corpus.CURVES[label][0]), p)
        if red.is_good and (trace_of_frobenius(red.minimal_model, p) - 1) % p == 0:
            compared += _y_tests_agree(red.minimal_model, p)
    assert compared >= 10


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=5, max_size=5), st.sampled_from((3, 5, 7)))
@example([2, -5, 1, 1, 4], 3)   # a root of psi_3 whose y is not 3-adic
@example([0, -1, 1, -10, -20], 5)
def test_legendre_y_test_matches_the_padic_oracle(a, p):
    try:
        E = WeierstrassModel(*a)
    except ValueError:
        assume(False)
    red = tate_reduction(E, p)
    assume(red.is_good)
    _y_tests_agree(red.minimal_model, p)


def test_delta_at_ramified_place():
    d = delta_v(E11A2, 5, "Q(mu_p)")
    assert (d.value, d.provenance, d.method) == (2, "computed-exact", "ramified-congruence")
    d = delta_v(E49A1, 3, "Q(mu_p)")
    assert (d.value, d.provenance) == (0, "computed-exact")


def test_delta_values_are_zero_or_two():
    rng = random.Random(23)
    seen = set()
    for _ in range(40):
        try:
            E = WeierstrassModel(*(rng.randint(-4, 4) for _ in range(5)))
        except ValueError:
            continue
        for p in (3, 5):
            try:
                d = delta_v(E, p)
            except ValueError:
                continue  # bad reduction at p
            assert d.value in (0, 2)
            seen.add(d.value)
    assert seen == {0, 2}
